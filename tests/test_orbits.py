"""Periodic orbits, pseudo orbits, balanced subsets, and cycle covers."""

import dataclasses
import gc
import itertools
import math
import pickle
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import qgspectra as q
from qgspectra import orbits
from qgspectra.orbits import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    admissible_subsets,
    canonical_orbit,
    covers_of_subset,
    enumerate_pseudo_orbits,
    group_by_bond_multiset,
    make_pseudo_orbit,
    primitive_orbits,
)

# pseudo orbits with repeated bonds allowed, by total bond count n = 0..7
GENERAL_COUNTS_V8 = [1, 2, 2, 4, 8, 16, 32, 64]
GENERAL_COUNTS_V6 = [1, 2, 3, 6, 10, 20, 40, 80]


def test_canonical_orbit_rotation(debruijn8):
    # the 2<->5 two-cycle, entered at either bond
    assert canonical_orbit(debruijn8, (10, 5)) == ((5, 10), True)
    assert canonical_orbit(debruijn8, (5, 10)) == ((5, 10), True)
    assert canonical_orbit(debruijn8, np.array([10, 5])) == ((5, 10), True)


def test_canonical_orbit_detects_repetition(debruijn8):
    assert canonical_orbit(debruijn8, (0, 0)) == ((0, 0), False)
    assert canonical_orbit(debruijn8, (5, 10, 5, 10)) == ((5, 10, 5, 10), False)
    assert canonical_orbit(debruijn8, (0,)) == ((0,), True)


def test_canonical_orbit_rejects_bad_input(debruijn8):
    with pytest.raises(ValueError):
        canonical_orbit(debruijn8, ())
    with pytest.raises(ValueError):
        canonical_orbit(debruijn8, (99,))
    with pytest.raises(ValueError):
        canonical_orbit(debruijn8, (0, 2))  # not a closed walk


def test_primitive_orbit_counts_match_necklaces(debruijn8):
    """On the de Bruijn graph the successor choice at each step is one bit,
    so primitive orbits of length n biject with binary Lyndon words."""
    orbits = primitive_orbits(debruijn8, 7)
    by_len = Counter(len(o) for o in orbits)
    words = q.lyndon_words(2, 7)
    expected = Counter(len(w) for w in words)
    assert by_len == expected


def test_primitive_orbits_smallest(debruijn8):
    orbits = primitive_orbits(debruijn8, 2)
    assert orbits == [(0,), (15,), (5, 10)]


# every call would pass with int() in place of the check: 0.7, 0.2 and True
# truncate to a valid bond id
@pytest.mark.parametrize("call", [
    lambda g: canonical_orbit(g, (0.7,)),
    lambda g: canonical_orbit(g, (True,)),
    lambda g: make_pseudo_orbit(g, [(0.7,)]),
    lambda g: covers_of_subset(g, [0.2]),
    lambda g: q.subset_contribution(q.build_bond_scattering(g), [0.2]),
], ids=["canonical_orbit", "canonical_orbit-bool", "make_pseudo_orbit", "covers_of_subset",
        "subset_contribution"])
def test_fractional_bond_ids_are_refused(debruijn8, call):
    with pytest.raises(ValueError, match="unknown bond id"):
        call(debruijn8)


def test_covers_refuse_an_unknown_bond(debruijn8):
    with pytest.raises(ValueError, match="unknown bond id 99"):
        covers_of_subset(debruijn8, [99])


def test_primitive_orbits_refuse_a_negative_length(debruijn8):
    assert primitive_orbits(debruijn8, 0) == []
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        primitive_orbits(debruijn8, -1)


def _plain_walk(graph, max_len):
    """The orbits and the steps of the unpruned walk that ``cap`` bounds:
    from each start bond, every walk over bonds >= it of length up to
    max_len, one step per follower >= the start, and a Lyndon check of
    each walk that the start follows."""
    followers = [graph.out_bonds[v] for _, v in graph.bonds]
    found = []
    steps = 0

    def extend(start, walk):
        nonlocal steps
        for nxt in followers[walk[-1]]:
            if nxt < start:
                continue
            steps += 1
            if nxt == start and q.is_lyndon(walk):
                found.append(tuple(walk))
            if len(walk) < max_len:
                walk.append(nxt)
                extend(start, walk)
                walk.pop()

    for start in range(graph.num_bonds if max_len else 0):
        extend(start, [start])
    return sorted(found, key=lambda o: (len(o), o)), steps


def test_cap_counts_the_plain_walk_exactly(many_random_graphs):
    """The pruned walk finds the plain walk's orbits, finishes with a cap
    of exactly its steps and gives up one step below."""
    graphs = [q.build_binary_graph(p, r) for p, r in ((1, 1), (1, 2), (1, 3), (1, 4), (3, 1),
                                                      (3, 2), (5, 1))]
    graphs += [q.DirectedGraph(1, ((0, 0),) * 3), *many_random_graphs]
    for graph in graphs:
        for max_len in range(11):
            expected, steps = _plain_walk(graph, max_len)
            assert primitive_orbits(graph, max_len, cap=steps) == expected, (graph, max_len)
            if steps:
                with pytest.raises(EnumerationCapExceeded,
                                   match=f"exceeded {steps - 1} steps at max_len={max_len}"):
                    primitive_orbits(graph, max_len, cap=steps - 1)


def test_primitive_orbits_scale_with_the_bonds_reached():
    # B = 8192, where work of order B per start bond takes about a minute
    graph = q.build_binary_graph(1, 12)
    start = time.perf_counter()
    found = primitive_orbits(graph, 3)
    assert time.perf_counter() - start < 1.0
    assert Counter(map(len, found)) == {1: 2, 2: 1, 3: 2}


def test_primitive_orbits_cap(debruijn8):
    with pytest.raises(EnumerationCapExceeded):
        primitive_orbits(debruijn8, 8, cap=10)
    with pytest.raises(EnumerationCapExceeded):
        primitive_orbits(debruijn8, 8, cap=0)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        primitive_orbits(debruijn8, 8, cap=-1)


def _check_orbit_signs(graph):
    """The port-flag signs of every primitive orbit of length <= 8 equal
    the product of transition_sign around it."""
    pool = primitive_orbits(graph, 8)
    expected = [math.prod(q.transition_sign(graph, b, orbit[(i + 1) % len(orbit)])
                          for i, b in enumerate(orbit)) for orbit in pool]
    assert orbits._orbit_signs(graph, pool) == expected, graph
    return expected


def test_orbit_signs_match_transition_signs(small_graphs):
    # the last graph has three bonds into and out of its one vertex, so a
    # bond in the third port slot is not flagged
    three_in = q.DirectedGraph(1, ((0, 0),) * 3)
    for graph in [*small_graphs, three_in]:
        assert -1 in _check_orbit_signs(graph)


def test_orbit_signs_match_transition_signs_on_graph_family(family_graph):
    _check_orbit_signs(family_graph)


def test_make_pseudo_orbit_canonicalizes(debruijn8):
    po = make_pseudo_orbit(debruijn8, [(10, 5), (15,)])
    assert po.orbits == ((5, 10), (15,))
    assert po.total_bonds == 3
    assert po.orbit_count == 2
    assert po.amplitude == pytest.approx(po.amp_sign * 2 ** (-1.5))
    assert po.weight_sign == (-1) ** 2 * po.amp_sign
    assert po.bond_multiset() == ((5, 1), (10, 1), (15, 1))
    assert po.bonds == [5, 10, 15]
    # n and m are derived from the member orbits, never stored beside them
    assert [f.name for f in dataclasses.fields(po)] == ["orbits", "amp_sign"]


def test_pseudo_orbit_is_slotted_and_keeps_its_value(debruijn8):
    po = make_pseudo_orbit(debruijn8, [(10, 5), (15,)])
    twin = q.PseudoOrbit(((5, 10), (15,)), po.amp_sign)
    assert twin == po and hash(twin) == hash(po) == hash((po.orbits, po.amp_sign))
    assert q.PseudoOrbit(po.orbits, -po.amp_sign) != po
    copy = pickle.loads(pickle.dumps(po))
    assert copy == po and hash(copy) == hash(po)
    assert not hasattr(po, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        po.amp_sign = -po.amp_sign


def test_general_pseudo_orbits_stay_small(debruijn16):
    # 32 768 pseudo orbits: 7.3 MB stay allocated with a __dict__ on each
    # and the recursion's lists kept alive until a collection, 5.2 MB now
    enumerate_pseudo_orbits(debruijn16, 2, mode="general")  # per-graph tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pseudo_orbits = enumerate_pseudo_orbits(debruijn16, 16, mode="general")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pseudo_orbits) == 32768
    assert retained < 6 * 10**6


def test_bonds_keep_multiplicity(debruijn8):
    po = make_pseudo_orbit(debruijn8, [(0, 1, 2, 4, 8), (0,)])
    assert po.orbits == ((0,), (0, 1, 2, 4, 8))
    assert po.bonds == [0, 0, 1, 2, 4, 8]
    assert (po.total_bonds, po.orbit_count) == (6, 2)
    assert po.bond_multiset() == ((0, 2), (1, 1), (2, 1), (4, 1), (8, 1))


def test_make_pseudo_orbit_rejects_duplicates(debruijn8):
    with pytest.raises(ValueError):
        make_pseudo_orbit(debruijn8, [(0,), (0,)])
    with pytest.raises(ValueError):
        make_pseudo_orbit(debruijn8, [(0, 0)])  # repetition, not primitive


def test_amplitude_magnitude(debruijn8):
    po = make_pseudo_orbit(debruijn8, [(5, 10)])
    assert po.orbit_count == 1
    assert abs(po.amplitude) == pytest.approx(0.5)


def test_admissible_subsets_match_bruteforce(small_graphs):
    """Same tuples in the same (ascending) order as a walk over every
    subset, at every n.  The last graph, whose vertex 0 has four bonds in
    and four out, is refused by the census but not by the search."""
    census_refused = q.DirectedGraph(2, ((0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (1, 1)))
    for graph in [*small_graphs, census_refused]:
        B = graph.num_bonds
        for n in range(B + 1):
            expected = []
            for combo in itertools.combinations(range(B), n):
                balance = Counter()
                for b in combo:
                    balance[graph.origin(b)] += 1
                    balance[graph.terminus(b)] -= 1
                if all(v == 0 for v in balance.values()):
                    expected.append(combo)
            assert list(admissible_subsets(graph, n)) == expected, (graph, n)


def _check_frontier_rows(graph, n_max):
    """The frontier pass counts, at every n <= n_max, the balanced subsets
    the search finds (y_bits = 0) and the pseudo orbits a dump returns
    (y_bits = 1); above B/2 it reads both through the mirror n -> B - n."""
    ns = range(graph.num_bonds + 1)
    subsets = orbits.balanced_counts(graph, ns, 0)
    orbit_counts = orbits.balanced_counts(graph, ns, 1)
    for n in range(n_max + 1):
        assert len(list(admissible_subsets(graph, n))) == subsets[n], (graph, n)
        assert len(enumerate_pseudo_orbits(graph, n)) == orbit_counts[n], (graph, n)


def test_admissible_subsets_match_census_counts(small_graphs, debruijn16):
    # debruijn16 up to its midpoint only: beyond it a dump holds up to 2^16
    # pseudo orbits, about thirty times the cost of the rows up to n = 16
    for graph, n_max in [(g, g.num_bonds) for g in small_graphs] + [(debruijn16, 16)]:
        _check_frontier_rows(graph, n_max)


def test_frontier_rows_match_search_on_graph_family(family_graph):
    _check_frontier_rows(family_graph, family_graph.num_bonds)


def _frontier_views(graph, n_max):
    """Every view of the frontier pass at n_max: y_bits 0, 1 and 2, and the
    census digit."""
    ns = range(n_max + 1)
    return [lambda y=y: orbits.balanced_counts(graph, ns, y) for y in (0, 1, 2)] + [
        lambda: q.census(graph, ns)]


def _finishes(view):
    try:
        view()
    except orbits.FrontierBudgetExceeded:
        return False
    return True


def _peak_states(graph, n_max, monkeypatch):
    """The fewest states the y_bits = 0 pass finishes within, found by
    bisecting FRONTIER_STATE_LIMIT with the bit term lifted."""
    monkeypatch.setattr(orbits, "FRONTIER_BIT_LIMIT", 1 << 400)
    view = _frontier_views(graph, n_max)[0]
    low, high = 0, 1 << graph.num_bonds  # a state is a set of open bonds
    while high - low > 1:
        mid = (low + high) // 2
        monkeypatch.setattr(orbits, "FRONTIER_STATE_LIMIT", mid)
        low, high = (low, mid) if _finishes(view) else (mid, high)
    return high


def _check_one_fate(graph, n_max, monkeypatch):
    """Every view holds the same states, so all of them give up one state
    below the peak and all finish at it."""
    peak = _peak_states(graph, n_max, monkeypatch)
    for limit, finishes in ((peak - 1, False), (peak, True)):
        monkeypatch.setattr(orbits, "FRONTIER_STATE_LIMIT", limit)
        assert [_finishes(view) for view in _frontier_views(graph, n_max)] == [finishes] * 4, (
            graph, limit)
    return peak


def test_every_frontier_view_shares_one_fate_on_graph_family(family_graph, monkeypatch):
    _check_one_fate(family_graph, family_graph.num_bonds, monkeypatch)


def test_frontier_pass_gives_up_beyond_its_state_budget(debruijn16, monkeypatch):
    full = orbits.balanced_counts(debruijn16, range(17), 0)
    peak = _check_one_fate(debruijn16, 16, monkeypatch)
    assert orbits.balanced_counts(debruijn16, range(17), 0) == full
    monkeypatch.setattr(orbits, "FRONTIER_STATE_LIMIT", peak - 1)
    with pytest.raises(orbits.FrontierBudgetExceeded,
                       match=f"n=16 needs more than {peak - 1} frontier states"):
        orbits.balanced_counts(debruijn16, range(17), 0)


def test_only_the_bit_term_stops_the_census(debruijn16, monkeypatch):
    # a census state carries n_max/2 + 1 = 9 digits of 33 bits here, a
    # y_bits = 0 state one: bits for exactly the peak stop only the census
    subsets = orbits.balanced_counts(debruijn16, range(17), 0)
    peak = _peak_states(debruijn16, 16, monkeypatch)
    monkeypatch.setattr(orbits, "FRONTIER_STATE_LIMIT", 100_000)
    monkeypatch.setattr(orbits, "FRONTIER_BIT_LIMIT", peak * 33 * 17)
    assert orbits.balanced_counts(debruijn16, range(17), 0) == subsets
    with pytest.raises(orbits.FrontierBudgetExceeded, match=f"more than {peak // 9} frontier"):
        q.census(debruijn16, range(17))


def test_vertex_steps_built_once_per_graph():
    graph = q.build_binary_graph(7, 1)
    steps = orbits._vertex_steps(graph)
    assert orbits._vertex_steps(graph) is steps
    # the frontier pass and the subset search only read the shared table
    q.census(graph, range(10))
    list(admissible_subsets(graph, 9))
    assert steps == orbits._build_vertex_steps(graph)


def test_vertex_steps_die_with_their_graph():
    gc.collect()
    tables = (orbits._STEP_TABLES, orbits._PORT_FLAGS)
    before = [len(table) for table in tables]
    # a graph no other test builds, so that its entries are its own
    graph = q.orient_four_regular([(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])
    orbits._vertex_steps(graph)
    orbits._orbit_signs(graph, [(0, 2)])
    assert [len(table) for table in tables] == [n + 1 for n in before]
    del graph
    gc.collect()
    assert [len(table) for table in tables] == before


def _rescanned_elimination_order(graph):
    """The greedy min-frontier order by a rescan of every vertex per step."""
    neighbours = [[] for _ in range(graph.vertex_count)]
    for u, w in graph.bonds:
        if u != w:
            neighbours[u].append(w)
            neighbours[w].append(u)
    done = [False] * graph.vertex_count
    order = []
    for _ in range(graph.vertex_count):
        _, v = min((sum(-1 if done[w] else 1 for w in neighbours[v]), v)
                   for v in range(graph.vertex_count) if not done[v])
        done[v] = True
        order.append(v)
    return order


def test_elimination_order_matches_a_full_rescan():
    graphs = [q.build_binary_graph(1, r) for r in range(1, 8)]
    graphs += [q.build_binary_graph(p, r) for p, r in ((3, 1), (3, 2), (5, 1), (7, 1))]
    # seeded configuration-model graphs on up to 40 vertices, with
    # self-loops and parallel bonds
    rng = random.Random(11)
    while len(graphs) < 51:
        V = rng.randint(1, 40)
        stubs = [v for v in range(V) for _ in range(4)]
        rng.shuffle(stubs)
        try:
            graphs.append(q.orient_four_regular(zip(stubs[::2], stubs[1::2]), vertex_count=V))
        except ValueError:  # disconnected draw
            continue
    for graph in graphs:
        assert orbits._elimination_order(graph) == _rescanned_elimination_order(graph), graph


def test_elimination_order_scales_to_large_graphs():
    # V = 16384, where a rescan of every vertex per step, quadratic in V,
    # takes minutes
    graph = q.build_binary_graph(1, 14)
    start = time.perf_counter()
    order = orbits._elimination_order(graph)
    assert time.perf_counter() - start < 2.0
    assert sorted(order) == list(range(graph.vertex_count))


def test_admissible_subsets_rejects_bad_n(binary6):
    with pytest.raises(ValueError):
        list(admissible_subsets(binary6, 13))


def test_covers_without_encounter(debruijn8):
    # loops at 0 and 7 plus the 2<->5 cycle: no vertex visited twice
    family = covers_of_subset(debruijn8, (0, 5, 10, 15))
    assert family.encounter_count == 0
    assert len(family.covers) == 1
    assert family.covers[0].orbits == ((0,), (5, 10), (15,))


def test_covers_with_one_encounter(debruijn8):
    # loop at 0 beside the 4-cycle 0->1->2->4->0: vertex 0 carries 2+2 bonds
    family = covers_of_subset(debruijn8, (0, 1, 2, 4, 8))
    assert family.doubly_visited == (0,)
    assert len(family.covers) == 2
    assert {po.orbits for po in family.covers} == {
        ((0,), (1, 2, 4, 8)),
        ((0, 1, 2, 4, 8),),
    }
    # the swap flips the amplitude sign and changes m by one, so the
    # signed amplitude (-1)^m A is shared
    signed = {po.signed_amplitude for po in family.covers}
    assert len(signed) == 1
    ms = sorted(po.orbit_count for po in family.covers)
    assert ms[1] - ms[0] == 1


def test_covers_reject_unbalanced(debruijn8):
    with pytest.raises(ValueError):
        covers_of_subset(debruijn8, (1,))


def _minor_det(S, subset):
    idx = np.array(subset, dtype=int)
    return complex(np.linalg.det(S.matrix[np.ix_(idx, idx)]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minor_equals_cover_sum(debruijn8, scattering8, n):
    """det S_I = (-1)^n 2^N A, with A the signed amplitude common to the
    2^N covers; hence |det S_I|^2 = 2^(2N - n)."""
    for subset in admissible_subsets(debruijn8, n):
        family = covers_of_subset(debruijn8, subset)
        N = family.encounter_count
        assert len(family.covers) == 2**N
        signed = {po.signed_amplitude for po in family.covers}
        assert len(signed) == 1
        det = _minor_det(scattering8, subset)
        assert det == pytest.approx((-1) ** n * 2**N * signed.pop(), abs=1e-12)
        assert abs(det) ** 2 == pytest.approx(2.0 ** (2 * N - n), abs=1e-12)


def test_bond_distinct_mode_counts(debruijn8, binary6):
    for g, counts in ((debruijn8, [1, 2, 2, 4, 8, 16]), (binary6, [1, 2, 3, 6, 10, 12])):
        for n, want in enumerate(counts):
            assert len(enumerate_pseudo_orbits(g, n)) == want


def test_general_mode_counts(debruijn8, binary6):
    for g, counts in ((debruijn8, GENERAL_COUNTS_V8), (binary6, GENERAL_COUNTS_V6)):
        for n, want in enumerate(counts):
            pos = enumerate_pseudo_orbits(g, n, mode="general")
            assert len(pos) == want
            assert len(set(pos)) == want
            assert all(po.total_bonds == n for po in pos)


def test_general_contains_bond_distinct(binary6, debruijn8):
    """The cycle covers, general-mode combination and make_pseudo_orbit
    build the same pseudo orbits, amplitude signs included."""
    for graph in (binary6, debruijn8):
        for n in range(7):
            distinct = enumerate_pseudo_orbits(graph, n)
            general = enumerate_pseudo_orbits(graph, n, mode="general")
            assert distinct == [po for po in general if len(set(po.bonds)) == n]
            for po in distinct:
                assert make_pseudo_orbit(graph, po.orbits) == po
        assert set(distinct) < set(general)


def test_enumerate_rejects_bad_args(binary6):
    with pytest.raises(ValueError):
        enumerate_pseudo_orbits(binary6, -1)
    with pytest.raises(ValueError):
        enumerate_pseudo_orbits(binary6, 3, mode="something")
    for mode in ("general", "bond_distinct"):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            enumerate_pseudo_orbits(binary6, 3, mode=mode, cap=-1)


@pytest.mark.parametrize("mode", ["general", "bond_distinct"])
def test_enumerate_cap(binary6, mode):
    # binary6 has 16 bond-distinct pseudo orbits at n=6, above the cap of 10
    with pytest.raises(EnumerationCapExceeded):
        enumerate_pseudo_orbits(binary6, 6, mode=mode, cap=10)


def test_group_by_bond_multiset(binary6, debruijn8):
    pos = enumerate_pseudo_orbits(binary6, 4, mode="general")
    groups = group_by_bond_multiset(pos)
    assert sum(len(g) for g in groups.values()) == len(pos)
    # the two covers of {0, 1, 3, 6} are each other's only partners
    key = ((0, 1), (1, 1), (3, 1), (6, 1))
    assert {po.orbits for po in groups[key]} == {
        ((0,), (1, 3, 6)),
        ((0, 1, 3, 6),),
    }
    # every public key, repeated bonds included, against a Counter per pseudo orbit
    pos = enumerate_pseudo_orbits(debruijn8, 8, mode="general")
    reference: dict = {}
    for po in pos:
        key = tuple(sorted(Counter(b for orbit in po.orbits for b in orbit).items()))
        reference.setdefault(key, []).append(po)
    groups = group_by_bond_multiset(pos)
    assert len(groups) == 62
    assert any(m > 1 for key in groups for _bond, m in key)
    assert list(groups.items()) == list(reference.items())


def test_group_by_bond_multiset_matches_multiset_reference(family_graph):
    """Keys, key order and members equal those of groups keyed by a
    Counter of each pseudo orbit's bonds, for general-mode sets up to n = 8
    in their sorted order and reversed."""
    for n in range(9):
        pos = enumerate_pseudo_orbits(family_graph, n, mode="general")
        for ordered in (pos, pos[::-1]):
            reference: dict = {}
            for po in ordered:
                key = tuple(sorted(Counter(b for orbit in po.orbits for b in orbit).items()))
                assert po.bond_multiset() == key
                reference.setdefault(key, []).append(po)
            assert list(group_by_bond_multiset(ordered).items()) == list(reference.items())


def test_default_cap_value():
    assert DEFAULT_CAP == 2_000_000
