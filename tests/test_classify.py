"""Encounter classification, exact dyadic variance, and cancellation."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qgspectra as q
from qgspectra.classify import (
    ClassCounts,
    class_census,
    class_counts,
    classify_pseudo_orbit,
    diagonal_approximation,
    exact_variance,
    pseudo_orbit_counts,
    pseudo_orbit_record,
    variance_from_classes,
    write_orbit_dump,
)
from qgspectra.graphs import DirectedGraph
from qgspectra.orbits import (
    PseudoOrbit,
    enumerate_pseudo_orbits,
    group_by_bond_multiset,
    make_pseudo_orbit,
)
from qgspectra.spectral import minor_sum_variance

V8_P0 = [1, 2, 2, 4, 8, 8, 8, 16, 16]
V8_PHAT = [{}, {}, {}, {}, {}, {1: 8}, {1: 20}, {1: 16, 2: 8}, {1: 16, 2: 24}]
V8_VAR = [Fraction(x) for x in ("1", "1", "1/2", "1/2", "1/2", "3/4", "3/4", "5/8", "9/16")]

V6_P0 = [1, 2, 3, 6, 6, 8, 8]
V6_PHAT = [{}, {}, {}, {}, {1: 4}, {1: 4}, {1: 8}]
V6_VAR = [Fraction(x) for x in ("1", "1", "3/4", "3/4", "7/8", "1/2", "3/8")]

# the ten bond-distinct pseudo orbits of length 4 on the 6-vertex graph,
# by class (bond ids; see test_graphs.BINARY6_BONDS for the bond table)
V6_N4_P0 = {
    ((2, 4, 9, 7),),
    ((3, 7), (4, 8)),
    ((0,), (5, 10, 8)),
    ((1, 3, 6), (11,)),
    ((0,), (3, 7), (11,)),
    ((0,), (4, 8), (11,)),
}
V6_N4_PHAT1 = {
    ((0,), (1, 3, 6)),
    ((0, 1, 3, 6),),
    ((5, 10, 8), (11,)),
    ((5, 11, 10, 8),),
}


def test_higher_visits_on_three_in_graph():
    # reachable only off the 2-in/2-out graphs: three loops at one vertex
    graph = DirectedGraph(1, ((0, 0),) * 3)
    po = make_pseudo_orbit(graph, [(0,), (1,), (2,)])
    tag = classify_pseudo_orbit(graph, po)
    assert (tag.kind, tag.reason) == ("excluded", "vertex passed three or more times")


def test_classification_kinds(binary6):
    p0 = make_pseudo_orbit(binary6, [(3, 7), (4, 8)])
    assert classify_pseudo_orbit(binary6, p0).kind == "P0"
    assert classify_pseudo_orbit(binary6, p0).label == "P0"

    phat = make_pseudo_orbit(binary6, [(0, 1, 3, 6)])
    tag = classify_pseudo_orbit(binary6, phat)
    assert (tag.kind, tag.encounters, tag.label) == ("PhatN", 1, "P^N")

    excluded = make_pseudo_orbit(binary6, [(0,), (0, 1, 3, 6)])
    tag = classify_pseudo_orbit(binary6, excluded)
    assert (tag.kind, tag.label, tag.reason) == ("excluded", "excluded", "repeated bond")


def test_v6_length4_classes_verbatim(binary6):
    p0, phat1 = set(), set()
    for po in enumerate_pseudo_orbits(binary6, 4):
        tag = classify_pseudo_orbit(binary6, po)
        if tag.kind == "P0":
            p0.add(po.orbits)
        else:
            assert (tag.kind, tag.encounters) == ("PhatN", 1)
            phat1.add(po.orbits)
    assert p0 == V6_N4_P0
    assert phat1 == V6_N4_PHAT1


def test_debruijn8_class_table(debruijn8):
    for n in range(9):
        counts = class_counts(debruijn8, n)
        assert counts.p0 == V8_P0[n]
        assert counts.phat == V8_PHAT[n]
        assert counts.excluded == 0
        assert variance_from_classes(counts) == V8_VAR[n]


def test_binary6_class_table(binary6):
    for n in range(7):
        counts = class_counts(binary6, n)
        assert counts.p0 == V6_P0[n]
        assert counts.phat == V6_PHAT[n]
        assert variance_from_classes(counts) == V6_VAR[n]


def test_general_mode_census(debruijn8, binary6):
    # repeated-bond pseudo orbits appear only in general mode; their count
    # plus the classified ones recovers the plain pseudo-orbit totals
    got = class_counts(debruijn8, 6, mode="general")
    assert (got.p0, got.phat, got.excluded) == (8, {1: 20}, 4)
    got = class_counts(debruijn8, 7, mode="general")
    assert (got.p0, got.phat, got.excluded) == (16, {1: 16, 2: 8}, 24)
    got = class_counts(binary6, 5, mode="general")
    assert (got.p0, got.phat, got.excluded) == (8, {1: 4}, 8)


def _enumerated_census(graph, n, mode="bond_distinct"):
    """The census straight from the enumerated pseudo orbits, classified one
    by one."""
    p0, phat, excluded = 0, {}, 0
    for po in enumerate_pseudo_orbits(graph, n, mode):
        tag = classify_pseudo_orbit(graph, po)
        if tag.kind == "P0":
            p0 += 1
        elif tag.kind == "PhatN":
            phat[tag.encounters] = phat.get(tag.encounters, 0) + 1
        else:
            excluded += 1
    return ClassCounts(n=n, p0=p0, phat=dict(sorted(phat.items())), excluded=excluded)


def _assert_census_matches_enumeration(graph, n_max):
    """Bond-distinct census and oracle for n <= min(n_max, B); general
    census, pseudo-orbit count and diagonal approximation for n <= n_max,
    also above B.  The one-pass rows must equal the per-n views."""
    S = q.build_bond_scattering(graph)
    bond_distinct_rows = class_census(graph, min(n_max, graph.num_bonds))
    general_rows = class_census(graph, n_max, mode="general")
    totals = pseudo_orbit_counts(graph, n_max)
    for n in range(min(n_max, graph.num_bonds) + 1):
        counts = class_counts(graph, n)
        assert counts == bond_distinct_rows[n] == _enumerated_census(graph, n)
        assert abs(float(variance_from_classes(counts)) - minor_sum_variance(S, n)) <= 1e-12
    for n in range(n_max + 1):
        general = _enumerated_census(graph, n, "general")
        assert class_counts(graph, n, mode="general") == general_rows[n] == general
        total = general.p0 + general.phat_total() + general.excluded
        assert totals[n] == total
        assert diagonal_approximation(graph, n) == Fraction(total, 2**n)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_census_matches_enumeration_on_random_graphs(vertex_count, seed):
    # seeded configuration model: pair up the 4V half-edge stubs, keeping
    # self-loops and parallel edges
    stubs = [v for v in range(vertex_count) for _ in range(4)]
    random.Random(seed).shuffle(stubs)
    edges = list(zip(stubs[::2], stubs[1::2]))
    try:
        graph = q.orient_four_regular(edges, vertex_count)
    except ValueError:  # disconnected draw
        assume(False)
    # the smallest graphs also reach n > B, where every pseudo orbit
    # repeats a bond
    n_max = max(6, graph.num_bonds + 3) if vertex_count <= 2 else 6
    _assert_census_matches_enumeration(graph, n_max)


@pytest.mark.parametrize("p, r", [(3, 2), (5, 1)])
def test_census_matches_enumeration_on_binary_family(p, r):
    _assert_census_matches_enumeration(q.build_binary_graph(p, r), 6)


def test_census_rejects_vertex_above_two_in_two_out():
    graph = DirectedGraph(2, ((0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(ValueError, match="vertex 0 has 4 incoming / 4 outgoing"):
        class_counts(graph, 2)
    with pytest.raises(ValueError, match="vertex 0 has 4 incoming / 4 outgoing"):
        class_counts(graph, 2, mode="general")
    with pytest.raises(ValueError, match="vertex 0"):
        exact_variance(graph, 3)


def test_census_rejects_bad_arguments(binary6):
    for mode in ("bond_distinct", "general"):
        with pytest.raises(ValueError):
            class_counts(binary6, -1, mode=mode)
    with pytest.raises(ValueError):
        diagonal_approximation(binary6, -1)
    with pytest.raises(ValueError, match="unknown mode"):
        class_counts(binary6, 3, mode="something")


def test_variance_from_classes_arithmetic():
    counts = ClassCounts(n=4, p0=6, phat={1: 4})
    assert variance_from_classes(counts) == Fraction(7, 8)
    assert counts.phat_total() == 4


def test_exact_variance_tables(debruijn8, binary6):
    assert [exact_variance(debruijn8, n) for n in range(9)] == V8_VAR
    assert [exact_variance(binary6, n) for n in range(7)] == V6_VAR


def test_exact_variance_mirror(debruijn8, binary6):
    for g in (debruijn8, binary6):
        B = g.num_bonds
        for n in range(B + 1):
            assert exact_variance(g, n) == exact_variance(g, B - n)
    assert exact_variance(debruijn8, 16) == 1
    with pytest.raises(ValueError):
        exact_variance(debruijn8, 17)


def test_c_gamma_cover_pair(binary6):
    from qgspectra.orbits import covers_of_subset

    family = covers_of_subset(binary6, (0, 1, 3, 6))
    for po in family.covers:
        assert q.c_gamma(binary6, po, family.covers) == Fraction(1, 8)


def test_c_gamma_rejects_foreign_partner(binary6):
    a = make_pseudo_orbit(binary6, [(0,)])
    b = make_pseudo_orbit(binary6, [(11,)])
    with pytest.raises(ValueError):
        q.c_gamma(binary6, a, [a, b])


def test_c_gamma_rejects_partner_with_other_multiplicities():
    # bonds {1, 1, 2} against {1, 2, 2}: one bond set, one length, but two
    # bond multisets, so a set or length comparison would let it through
    graph = DirectedGraph(1, ((0, 0),) * 3)
    a = PseudoOrbit(orbits=((1,), (1, 2)), amp_sign=1)
    b = PseudoOrbit(orbits=((1, 2), (2,)), amp_sign=1)
    with pytest.raises(ValueError, match="different bond multiset"):
        q.c_gamma(graph, a, [a, b])
    with pytest.raises(ValueError, match="different bond multiset"):
        q.c_gamma(graph, b, [a, b])


def test_c_gamma_of_a_lone_pseudo_orbit(binary6):
    for orbits in ([(0,)], [(0, 1, 3, 6)], [(3, 7), (4, 8)], [(0,), (0, 1, 3, 6)]):
        po = make_pseudo_orbit(binary6, orbits)
        assert q.c_gamma(binary6, po, [po]) == Fraction(po.weight_sign**2, 2**po.total_bonds)


def test_c_gamma_over_every_general_pseudo_orbit(debruijn8):
    """Pinned partner sums at n = 8 on B = 16: 0 for each repeated-bond
    pseudo orbit, 2^(N-n) for the rest, with N from the classification."""
    n = 8
    pos = enumerate_pseudo_orbits(debruijn8, n, mode="general")
    groups = group_by_bond_multiset(pos)
    assert (len(pos), len(groups)) == (128, 62)
    assert len({tuple(sorted(b for orbit in po.orbits for b in orbit)) for po in pos}) == 62
    repeated = 0
    total = Fraction(0)
    for group in groups.values():
        for po in group:
            c = q.c_gamma(debruijn8, po, group)
            tag = classify_pseudo_orbit(debruijn8, po)
            if any(m > 1 for _bond, m in po.bond_multiset()):
                repeated += 1
                assert (c, tag.kind) == (0, "excluded")
            else:
                assert c == Fraction(2**tag.encounters, 2**n)
            total += c
    assert repeated == 72
    assert total == exact_variance(debruijn8, n) == Fraction(9, 16)


def test_c_gamma_cancellation_at_n5(binary6):
    """Partner sums: 2^(N-n) for bond-distinct pseudo orbits, zero for
    repeated-bond ones; their total is the exact variance."""
    pos = enumerate_pseudo_orbits(binary6, 5, mode="general")
    groups = group_by_bond_multiset(pos)
    total = Fraction(0)
    for group in groups.values():
        for po in group:
            c = q.c_gamma(binary6, po, group)
            tag = classify_pseudo_orbit(binary6, po)
            if tag.kind == "excluded":
                assert c == 0
            else:
                assert c == Fraction(2 ** (tag.encounters or 0), 2**5)
            total += c
    assert total == exact_variance(binary6, 5)


def test_diagonal_approximation(debruijn8, binary6):
    # the de Bruijn graph has 2^(n-1) pseudo orbits of length n >= 2, so
    # the equal-weight estimate sits exactly at 1/2
    for n in range(2, 8):
        assert diagonal_approximation(debruijn8, n) == Fraction(1, 2)
    assert diagonal_approximation(debruijn8, 0) == 1
    assert [diagonal_approximation(binary6, n) for n in range(2, 8)] == [
        Fraction(3, 4),
        Fraction(3, 4),
        Fraction(5, 8),
        Fraction(5, 8),
        Fraction(5, 8),
        Fraction(5, 8),
    ]


def test_pseudo_orbit_record(binary6):
    po = make_pseudo_orbit(binary6, [(0, 1, 3, 6)])
    record = pseudo_orbit_record(binary6, po)
    assert record == {
        "orbits": [[0, 1, 3, 6]],
        "n": 4,
        "m": 1,
        "N": 1,
        "class": "P^N",
    }


def test_write_orbit_dump(binary6, tmp_path):
    import json

    pos = enumerate_pseudo_orbits(binary6, 4)
    path = tmp_path / "dump.jsonl"
    with open(path, "w") as handle:
        written = write_orbit_dump(binary6, pos, handle)
    lines = path.read_text().splitlines()
    assert written == len(lines) == 10
    classes = [json.loads(line)["class"] for line in lines]
    assert classes.count("P0") == 6
    assert classes.count("P^N") == 4
