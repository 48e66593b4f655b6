"""Every strongly connected 2-in/2-out shape with V <= 5 (72 up to
relabelling, from ``conftest.relabelling_classes``): the exact variance,
the principal-minor oracle, the class census and the Monte Carlo stages
agree to rounding, and the partner-sum cancellation audit holds."""

from fractions import Fraction

import numpy as np

import qgspectra as q
from qgspectra.classify import c_gamma, census, classify_pseudo_orbit, variance, variance_from_classes
from qgspectra.cli import ORACLE_TOL
from qgspectra.orbits import enumerate_pseudo_orbits, group_by_bond_multiset
from qgspectra.spectral import minor_sum_variance

AUDIT_N_MAX = 12


def test_shape_counts(shape_classes):
    # the labelled counts are OEIS A000681; up to relabelling 1, 3, 8, 25
    # and 85 remain, and 72 of those are strongly connected
    assert [len(shape_classes[V]) for V in range(1, 6)] == [1, 3, 8, 25, 85]
    connected = [sum(q.validate_graph(g).passed for g in shape_classes[V]) for V in range(1, 6)]
    assert connected == [1, 2, 5, 14, 50]


def test_exact_variance_equals_the_oracle(shape):
    B = shape.num_bonds
    S = q.build_bond_scattering(shape)
    for n, exact in enumerate(variance(shape, range(B + 1))):
        assert abs(minor_sum_variance(S, n) - float(exact)) <= ORACLE_TOL, n


def test_census_gives_the_exact_variance(shape):
    ns = range(shape.num_bonds // 2 + 1)
    assert [variance_from_classes(c) for c in census(shape, ns)] == variance(shape, ns)


def test_mc_stages_give_the_variance_on_a_dyadic_grid(shape, dyadic_grid_mean):
    exact = np.array([float(v) for v in variance(shape, range(shape.num_bonds + 1))])
    assert np.max(np.abs(dyadic_grid_mean(shape) - exact)) <= 1e-12


def test_cancellation_audit(shape):
    """Check 7 up to n = 12: repeated-bond pseudo orbits have C = 0,
    bond-distinct ones C = 2^(N - n), and the totals are the exact
    variance, 0 above B."""
    B = shape.num_bonds
    exact = variance(shape, range(B + 1))
    for n in range(AUDIT_N_MAX + 1):
        total = Fraction(0)
        for group in group_by_bond_multiset(
                enumerate_pseudo_orbits(shape, n, mode="general")).values():
            for po in group:
                C = c_gamma(shape, po, group)
                tag = classify_pseudo_orbit(shape, po)
                wanted = 0 if tag.kind == "excluded" else Fraction(2**tag.encounters, 2**n)
                assert C == wanted, (n, po.orbits)
                total += C
        assert total == (exact[n] if n <= B else 0), n

