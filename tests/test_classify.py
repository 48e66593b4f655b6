"""Encounter classification, exact dyadic variance, and cancellation."""

import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qgspectra as q
from qgspectra.classify import (
    ClassCounts,
    census,
    class_counts,
    classify_pseudo_orbit,
    diagonal_approximation,
    exact_variance,
    pseudo_orbit_counts,
    pseudo_orbit_record,
    variance,
    variance_from_classes,
    write_orbit_dump,
)
from qgspectra.graphs import DirectedGraph
from qgspectra.orbits import (
    PseudoOrbit,
    covers_of_subset,
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


def test_classification_follows_the_graph_it_is_given(binary6):
    # classify keeps the termini of the last graph it saw: alternating
    # graphs must rebuild them, and the table must not keep a graph alive
    graph = DirectedGraph(1, ((0, 0),) * 3)
    crowded = make_pseudo_orbit(graph, [(0,), (1,), (2,)])
    p0 = make_pseudo_orbit(binary6, [(3, 7), (4, 8)])
    for _ in range(2):
        assert classify_pseudo_orbit(graph, crowded).kind == "excluded"
        assert classify_pseudo_orbit(binary6, p0).kind == "P0"
    assert classify_pseudo_orbit(graph, crowded).kind == "excluded"
    held = weakref.ref(graph)
    del graph
    gc.collect()
    assert held() is None


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
    """Bond-distinct census, variance pass and oracle for n <= min(n_max,
    B); general census, pseudo-orbit count and diagonal approximation for
    n <= n_max, also above B.  The one-pass rows must equal the per-n
    views."""
    S = q.build_bond_scattering(graph)
    bond_distinct_ns = range(min(n_max, graph.num_bonds) + 1)
    bond_distinct_rows = census(graph, bond_distinct_ns)
    assert variance(graph, bond_distinct_ns) == [
        variance_from_classes(counts) for counts in bond_distinct_rows
    ]
    general_rows = census(graph, range(n_max + 1), mode="general")
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


def test_census_rejects_vertex_below_two_in_two_out():
    # the mirror n -> B - n that every count reads above B/2 needs B = 2V
    graph = DirectedGraph(2, ((0, 1), (1, 0), (1, 1)))
    with pytest.raises(ValueError, match="vertex 0 has 1 incoming / 1 outgoing"):
        class_counts(graph, 2)


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


def test_variance_pass_pinned_rows():
    # the B=128 midpoint, for which the census pass takes 47 s and 3.3 GB;
    # and the whole B=64 row against the census
    assert exact_variance(q.build_binary_graph(1, 6), 64) == Fraction(2226561237, 2**32)
    debruijn32 = q.build_binary_graph(1, 5)
    row = variance(debruijn32, range(33))
    assert row == [variance_from_classes(counts) for counts in census(debruijn32, range(33))]
    assert row[32] == Fraction(36993, 65536)


def test_c_gamma_cover_pair(binary6):
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


def test_c_gamma_over_every_general_pseudo_orbit(debruijn8, debruijn16):
    """Pinned partner sums at n = 8 on B = 16, and at n = 16 on B = 32 (the
    size of the benchmark's audit): 0 for each repeated-bond pseudo orbit,
    2^(N-n) for the rest, with N from the classification; the classes
    match the general-mode census."""
    cases = (
        (debruijn8, 8, 128, 62, {"P0": 16, "PhatN": 40, "excluded": 72}, Fraction(9, 16)),
        (debruijn16, 16, 32768, 6218, {"P0": 256, "PhatN": 3648, "excluded": 28864},
         Fraction(145, 256)),
    )
    for graph, n, pseudo_orbits, partner_groups, classes, variance in cases:
        pos = enumerate_pseudo_orbits(graph, n, mode="general")
        groups = group_by_bond_multiset(pos)
        assert (len(pos), len(groups)) == (pseudo_orbits, partner_groups)
        assert len({tuple(sorted(b for orbit in po.orbits for b in orbit))
                    for po in pos}) == partner_groups
        kinds = Counter()
        total = Fraction(0)
        for group in groups.values():
            for po in group:
                c = q.c_gamma(graph, po, group)
                tag = classify_pseudo_orbit(graph, po)
                kinds[tag.kind] += 1
                if any(m > 1 for _bond, m in po.bond_multiset()):
                    assert (c, tag.kind) == (0, "excluded")
                else:
                    assert c == Fraction(2**tag.encounters, 2**n)
                total += c
        assert kinds == classes
        census = class_counts(graph, n, mode="general")
        assert (census.p0, census.phat_total(), census.excluded) == tuple(classes.values())
        assert total == exact_variance(graph, n) == variance


def test_c_gamma_rechecks_a_changed_group(binary6):
    """A group verified once is reused only for the same partner objects in
    the same order: anything else is checked in full, right after a call
    that reused the verified group, too."""
    family = covers_of_subset(binary6, (0, 1, 3, 6))
    group = list(family.covers)
    a, b = group
    foreign = make_pseudo_orbit(binary6, [(11,)])
    assert q.c_gamma(binary6, a, group) == q.c_gamma(binary6, b, group) == Fraction(1, 8)
    group[1] = foreign  # replaced in place
    with pytest.raises(ValueError, match="different bond multiset"):
        q.c_gamma(binary6, a, group)
    # a generator of the partners gives the list's value
    group = list(family.covers)
    assert q.c_gamma(binary6, a, group) == Fraction(1, 8)
    assert q.c_gamma(binary6, a, (po for po in family.covers)) == Fraction(1, 8)
    assert q.c_gamma(binary6, a, iter(group)) == Fraction(1, 8)
    # an outsider with the group's bond multiset gets the group's value
    twin = PseudoOrbit(orbits=a.orbits, amp_sign=-a.amp_sign)
    assert twin is not a and twin.bonds == a.bonds
    assert q.c_gamma(binary6, twin, group) == Fraction(-1, 8)
    assert q.c_gamma(binary6, b, [a]) == Fraction(1, 16)
    # an outsider with another multiset raises, right after a reuse too
    assert q.c_gamma(binary6, b, group) == Fraction(1, 8)
    with pytest.raises(ValueError, match="different bond multiset"):
        q.c_gamma(binary6, foreign, group)
    assert q.c_gamma(binary6, foreign, []) == 0


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


def _pseudo_orbit_counts_by_primitive_orbits(graph, n_max):
    """|P^n| = [x^n] prod_ell (1 + x^ell)^pi_ell, with the primitive orbit
    counts pi_ell from tr(A^ell) = sum_{d | ell} d pi_d: the route that
    the determinant series replaced, kept as its reference."""
    A = np.zeros((graph.vertex_count,) * 2, dtype=object)
    for u, w in graph.bonds:
        A[u, w] += 1
    power = np.identity(graph.vertex_count, dtype=object)
    primitive = [0] * (n_max + 1)
    totals = [1] + [0] * n_max
    for ell in range(1, n_max + 1):
        power = power.dot(A)
        repeats = sum(d * primitive[d] for d in range(1, ell) if ell % d == 0)
        primitive[ell] = (power.trace() - repeats) // ell
        for m in range(n_max, ell - 1, -1):
            totals[m] += sum(math.comb(primitive[ell], j) * totals[m - j * ell]
                             for j in range(1, m // ell + 1))
    return totals


def test_pseudo_orbit_counts_match_primitive_orbit_route(random_graphs):
    # n_max = 40 lies above V on every graph, so the series is truncated
    # at degree V, and above B on all but p=5 r=2 (B = 40); shorter rows,
    # cut below V, are prefixes
    graphs = [q.build_binary_graph(p, r) for p, r in ((1, 4), (3, 2), (5, 2))] + random_graphs
    assert sum(graph.num_bonds < 40 for graph in graphs) == len(graphs) - 1
    for graph in graphs:
        expected = _pseudo_orbit_counts_by_primitive_orbits(graph, 40)
        assert pseudo_orbit_counts(graph, 40) == expected, graph
        V = graph.vertex_count
        for n_max in (0, 1, V - 1, V, V + 1):
            assert pseudo_orbit_counts(graph, n_max) == expected[:n_max + 1], (graph, n_max)


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
