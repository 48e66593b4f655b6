"""Periodic orbits, pseudo orbits, balanced subsets, and cycle covers."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

import qgspectra as q
from qgspectra.classify import _balanced_subset_counts
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


def test_primitive_orbits_cap(debruijn8):
    with pytest.raises(EnumerationCapExceeded):
        primitive_orbits(debruijn8, 8, cap=10)


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
    subset, at every n."""
    for graph in small_graphs:
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


def test_admissible_subsets_match_census_counts(small_graphs, debruijn16):
    """The search finds as many balanced subsets as the census DP counts."""
    for graph, n_max in [(g, g.num_bonds) for g in small_graphs] + [(debruijn16, 16)]:
        rows = _balanced_subset_counts(graph, n_max)
        for n in range(n_max + 1):
            assert len(list(admissible_subsets(graph, n))) == sum(rows[n]), (graph, n)


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


@pytest.mark.parametrize("mode", ["general", "bond_distinct"])
def test_enumerate_cap(binary6, mode):
    # bond_distinct would walk C(12, 6) = 924 subsets
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
    assert groups == reference


def test_default_cap_value():
    assert DEFAULT_CAP == 2_000_000
