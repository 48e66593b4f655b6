"""Coefficient extraction, Monte Carlo averaging, and the minor-sum oracle."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

import qgspectra as q
from qgspectra import spectral
from qgspectra.cli import ORACLE_TOL
from qgspectra.quantize import BondScattering, evolution_operator
from qgspectra.spectral import (
    CoefficientVector,
    _coefficients_from_eigenvalues,
    _k_slice,
    _unitary_eigenvalues,
    char_poly_coefficients,
    mc_variance,
    minor_sum_variance,
    riemann_siegel_residual,
    subset_contribution,
)


def _haar_unitary(B, seed):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(B, B)) + 1j * rng.normal(size=(B, B))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))[np.newaxis, :]


def _newton_coefficients(U):
    """Independent route: elementary symmetric functions of the spectrum
    via power sums, then a_n = (-1)^(B+n) e_n."""
    B = U.shape[0]
    p = [complex(np.trace(np.linalg.matrix_power(U, j))) for j in range(B + 1)]
    e = [1.0 + 0j]
    for k in range(1, B + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * p[j] for j in range(1, k + 1)) / k)
    return np.array([(-1) ** (B + n) * e[n] for n in range(B + 1)])


@pytest.mark.parametrize("B", [1, 2, 3, 5, 8, 17, 32])
def test_coefficients_match_newton_identities(B):
    U = _haar_unitary(B, seed=B)
    co = char_poly_coefficients(U)
    assert co.degree == B
    assert co.values == pytest.approx(_newton_coefficients(U), abs=1e-10)


def test_coefficients_stable_at_large_dimension():
    # mid-range coefficients of a 128-dim unitary are O(1); the expansion
    # must not lose them to cancellation
    U = _haar_unitary(128, seed=3)
    co = char_poly_coefficients(U)
    assert riemann_siegel_residual(co) < 1e-10
    assert co.values[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(co.values[-1]) == pytest.approx(1.0, abs=1e-10)


def test_coefficient_endpoints(scattering8, lengths8):
    U = evolution_operator(scattering8, lengths8, 13.7)
    co = char_poly_coefficients(U, k=13.7)
    assert co.k == 13.7
    assert co.values[0] == pytest.approx((-1) ** 16, abs=1e-12)
    assert abs(co.values[-1]) == pytest.approx(1.0, abs=1e-12)
    assert riemann_siegel_residual(co) < 1e-12


def test_nonunitary_input_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        char_poly_coefficients(0.5 * np.eye(4))
    with pytest.raises(ValueError):
        char_poly_coefficients(np.zeros((2, 3)))


def test_negative_control_coefficients():
    # (0.5 - zeta)^4 expanded: a_n = C(4, n) (-1)^n 0.5^n
    co = CoefficientVector(_coefficients_from_eigenvalues(np.full((1, 4), 0.5))[0])
    expected = [math.comb(4, n) * (-0.5) ** n for n in range(5)]
    assert co.values == pytest.approx(np.array(expected), abs=1e-12)
    assert riemann_siegel_residual(co) > 0.9  # symmetry needs unit modulus


@pytest.mark.parametrize("p, r, count", [(1, 3, 64), (3, 2, 64), (1, 5, 64), (1, 6, 24)])
def test_cayley_route_matches_eigvals(p, r, count):
    # B = 16, 24, 64, 128: seeded MC batches through both eigen routes
    graph = q.build_binary_graph(p, r)
    S = q.build_bond_scattering(graph)
    lengths = q.sample_bond_lengths(graph, 11)
    ks = np.random.default_rng(r).uniform(0.0, 1e5, count)
    U = S.matrix[np.newaxis] * np.exp(1j * np.outer(ks, lengths.values))[:, np.newaxis, :]
    cayley = _coefficients_from_eigenvalues(_unitary_eigenvalues(U))
    general = _coefficients_from_eigenvalues(np.linalg.eigvals(U))
    assert np.max(np.abs(np.abs(cayley) ** 2 - np.abs(general) ** 2)) <= 1e-10
    residual = np.abs(cayley - cayley[:, -1:] * np.conj(cayley[:, ::-1]))
    assert np.max(residual) <= 1e-10


def _passes(monkeypatch):
    calls = []
    one_pass = spectral._cayley_spectrum
    monkeypatch.setattr(
        spectral, "_cayley_spectrum", lambda U, alpha: calls.append(len(U)) or one_pass(U, alpha)
    )
    return calls


def _assert_spectrum(U, reference):
    eigenvalues = _unitary_eigenvalues(U[np.newaxis])[0]
    assert np.abs(eigenvalues) == pytest.approx(np.ones(len(reference)), abs=1e-14)
    assert np.poly(eigenvalues) == pytest.approx(np.poly(reference), abs=1e-12)


def test_cayley_fallback_at_the_pole(monkeypatch):
    # -e^{-i alpha0} is the eigenvalue that makes I + e^{i alpha0} U singular
    pole = -np.exp(-1j * spectral._CAYLEY_ROTATION)
    spectrum = np.array([pole, 1.0, 1j, -1.0, np.exp(0.3j), np.exp(-2.2j)])
    Q = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 6)) + 0j)[0]
    for U in (np.diag(spectrum), Q @ np.diag(spectrum) @ Q.conj().T):
        calls = _passes(monkeypatch)
        _assert_spectrum(U, spectrum)
        assert calls == [1, 1]


@pytest.mark.parametrize("rotation, passes", [(None, [1]), (0.0, [1, 1])])
def test_cayley_minus_identity_and_cycle(monkeypatch, rotation, passes):
    # the fixed rotation keeps -I and a 4-cycle off the pole; without it
    # both have an eigenvalue exactly at -1 and take the retry
    if rotation is not None:
        monkeypatch.setattr(spectral, "_CAYLEY_ROTATION", rotation)
    cycle = np.eye(4)[[1, 2, 3, 0]]
    for U, spectrum in ((-np.eye(4), [-1.0] * 4), (cycle, [1.0, 1j, -1.0, -1j])):
        calls = _passes(monkeypatch)
        _assert_spectrum(U, np.array(spectrum, dtype=complex))
        assert calls == passes


def test_char_poly_coefficients_at_the_pole(monkeypatch):
    # an eigenvalue at the pole of the first Cayley pass: the retry moves
    # it off, and with no retries left the solver refuses rather than
    # returning the transform's rounding
    spectrum = np.array([-np.exp(-1j * spectral._CAYLEY_ROTATION), 1.0, 1j, -1.0])
    coefficients = char_poly_coefficients(np.diag(spectrum)).values
    assert np.max(np.abs(coefficients - np.poly(spectrum))) <= 1e-14
    monkeypatch.setattr(spectral, "_CAYLEY_RETRIES", 0)
    with pytest.raises(np.linalg.LinAlgError,
                       match="Cayley transform kept an eigenvalue at its pole"):
        char_poly_coefficients(np.diag(spectrum))


@pytest.mark.parametrize("batch_size", [1, 3, 7, 256])
def test_k_slices_reproduce_one_stream(batch_size):
    samples, seed, k_max = 1001, 42, 1e5
    stream = np.random.Generator(np.random.Philox(key=seed)).uniform(0.0, k_max, samples)
    slices = [
        _k_slice(seed, k_max, start, min(batch_size, samples - start))
        for start in range(0, samples, batch_size)
    ]
    assert np.array_equal(np.concatenate(slices), stream)


def test_mc_n0_is_exact(scattering6, lengths6):
    est = mc_variance(scattering6, lengths6, [0], samples=50, seed=1)[0]
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert (est.n, est.samples, est.seed) == (0, 50, 1)


def test_mc_is_deterministic(scattering6, lengths6):
    a = mc_variance(scattering6, lengths6, [2, 5], samples=600, seed=9)
    b = mc_variance(scattering6, lengths6, [2, 5], samples=600, seed=9)
    assert a == b
    c = mc_variance(scattering6, lengths6, [2, 5], samples=600, seed=10)
    assert a != c


def test_mc_thread_count_invariance(scattering6, lengths6):
    single = mc_variance(scattering6, lengths6, None, samples=2048, seed=4, batch_size=256)
    pooled = mc_variance(
        scattering6, lengths6, None, samples=2048, seed=4, batch_size=256, threads=3
    )
    assert single == pooled


def test_mc_stderr_does_not_cancel_where_the_power_is_constant():
    # |a_B| = 1, so the n = B spread is rounding noise; the textbook
    # (sum of squares - M mean^2) / (M - 1) cancels there, to a stderr of 1.4e-9
    graph = q.build_binary_graph(3, 2)
    S = q.build_bond_scattering(graph)
    lengths = q.sample_bond_lengths(graph, 4)
    [est] = mc_variance(S, lengths, [24], samples=300, seed=4)
    assert est.mean == pytest.approx(1.0, abs=1e-14)
    assert est.std_error < 1e-14


def test_mc_pool_capped_by_batches_and_cpus(scattering6, lengths6, monkeypatch):
    # a serial stand-in records the pool size, so no thread is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    single = mc_variance(scattering6, lengths6, None, samples=2048, seed=4, batch_size=256)
    monkeypatch.setattr(spectral, "ThreadPoolExecutor", SerialPool)
    huge = mc_variance(
        scattering6, lengths6, None, samples=2048, seed=4, batch_size=256, threads=10**6
    )
    assert huge == single
    two = mc_variance(scattering6, lengths6, [2], samples=600, seed=4, batch_size=300, threads=3)
    assert two == mc_variance(scattering6, lengths6, [2], samples=600, seed=4, batch_size=300)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert sizes[0] == min(8, cpus) and sizes[1] == min(2, cpus)


def test_mc_working_set_is_bounded_by_the_stack_size():
    # at B=64 a batch holds U, the Cayley operand and its inverse, one stack
    # each; the Hermitian part comes after the operand is freed, and more
    # samples add only batches
    graph = q.build_binary_graph(1, 5)
    S = q.build_bond_scattering(graph)
    lengths = q.sample_bond_lengths(graph, 3)
    mc_variance(S, lengths, None, samples=64, seed=1)  # one-time allocations
    peaks = []
    for samples in (512, 1024):
        tracemalloc.start()
        try:
            mc_variance(S, lengths, None, samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 3.5 * spectral._STACK_ELEMENTS * 16
    assert max(peaks) < 16 * 2**20
    assert peaks[1] <= peaks[0] + 2**16  # a batch's partial sums take 1 KB


def test_mc_does_not_depend_on_the_batch_size():
    graph = q.build_binary_graph(3, 2)  # B = 24
    S = q.build_bond_scattering(graph)
    lengths = q.sample_bond_lengths(graph, 5)
    runs = [mc_variance(S, lengths, None, samples=300, seed=2, batch_size=size)
            for size in (1, 7, None)]
    for ests in zip(*runs):
        means = np.array([est.mean for est in ests])
        assert np.max(np.abs(means - means[-1])) <= 1e-12 * means[-1]
        if 0 < ests[0].n < 24:  # |a_0| = |a_B| = 1: the std_error there is rounding noise
            errors = np.array([est.std_error for est in ests])
            assert np.max(np.abs(errors - errors[-1])) <= 1e-12 * errors[-1]


def test_unitary_eigenvalues_of_a_stack_match_each_row():
    graph = q.build_binary_graph(1, 5)
    S = q.build_bond_scattering(graph)
    lengths = q.sample_bond_lengths(graph, 3)
    ks = np.random.default_rng(9).uniform(0.0, 1e5, 64)
    U = S.matrix[np.newaxis] * np.exp(1j * np.outer(ks, lengths.values))[:, np.newaxis, :]
    stacked = _unitary_eigenvalues(U)
    rows = np.concatenate([_unitary_eigenvalues(U[i:i + 1]) for i in range(len(U))])
    assert np.max(np.abs(stacked - rows)) <= 1e-14


def test_mc_default_index_set(scattering6, lengths6):
    ests = mc_variance(scattering6, lengths6, samples=64, seed=0)
    assert [e.n for e in ests] == list(range(13))


def test_mc_matches_oracle(scattering8, lengths8):
    ests = mc_variance(scattering8, lengths8, None, samples=20_000, seed=7)
    for est in ests:
        oracle = minor_sum_variance(scattering8, est.n)
        assert abs(est.mean - oracle) <= max(4 * est.std_error, 1e-12)


def test_mc_rejects_bad_arguments(binary6, scattering6, lengths6, lengths8):
    with pytest.raises(ValueError):
        mc_variance(scattering6, lengths8, [0], samples=10, seed=0)
    with pytest.raises(ValueError):
        mc_variance(scattering6, lengths6, [0], samples=1, seed=0)
    with pytest.raises(ValueError):
        mc_variance(scattering6, lengths6, [99], samples=10, seed=0)
    with pytest.raises(ValueError):
        mc_variance(scattering6, lengths6, [0], samples=10, seed=0, k_max=0.0)
    shrunk = BondScattering(graph=binary6, matrix=0.5 * np.eye(12, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        mc_variance(shrunk, lengths6, [0], samples=10, seed=0)


@pytest.mark.parametrize(
    "setting, match",
    [
        ({"k_max": math.inf}, "finite"),
        ({"threads": 0}, "threads"),
        ({"threads": -3}, "threads"),
        ({"batch_size": 0}, "batch_size"),
    ],
)
def test_mc_rejects_unusable_settings(scattering6, lengths6, setting, match):
    with pytest.raises(ValueError, match=match):
        mc_variance(scattering6, lengths6, [0], samples=10, seed=0, **setting)


def test_subset_contribution_cases(debruijn8, scattering8):
    value, N = subset_contribution(scattering8, ())
    assert (value, N) == (1.0, 0)
    value, N = subset_contribution(scattering8, (0,))
    assert N == 0
    assert value == pytest.approx(0.5, abs=1e-14)
    value, N = subset_contribution(scattering8, (0, 1, 2, 4, 8))
    assert N == 1
    assert value == pytest.approx(2.0 ** (2 - 5), abs=1e-14)
    value, N = subset_contribution(scattering8, (1,))  # unbalanced
    assert (value, N) == (0.0, None)
    with pytest.raises(ValueError):
        subset_contribution(scattering8, (99,))


def test_minor_sum_matches_exact_variance(binary6, scattering6):
    for n in range(13):
        oracle = minor_sum_variance(scattering6, n)
        assert oracle == pytest.approx(float(q.exact_variance(binary6, n)), abs=1e-12)


def test_minor_sum_spot_checks_debruijn8(debruijn8, scattering8):
    for n in (0, 5, 8, 11, 16):
        oracle = minor_sum_variance(scattering8, n)
        assert oracle == pytest.approx(float(q.exact_variance(debruijn8, n)), abs=1e-12)
    with pytest.raises(ValueError):
        minor_sum_variance(scattering8, 17)


def test_minor_sum_flushes_full_blocks(debruijn8, scattering8, monkeypatch):
    # 64-entry blocks hold at most 16 minors (n = 2), one from n = 8 on,
    # so the oracle flushes full blocks before the last, partial one
    monkeypatch.setattr(spectral, "_STACK_ELEMENTS", 64)
    exact = q.variance(debruijn8, range(17))
    for n in range(17):
        assert abs(minor_sum_variance(scattering8, n) - float(exact[n])) <= ORACLE_TOL, n


def _every_minor_sum(S, n):
    """Reference: |det S_I|^2 summed over all C(B, n) subsets I, balanced
    or not, in one batched call."""
    B = S.num_bonds
    idx = np.array(list(itertools.combinations(range(B), n)), dtype=np.intp)
    idx = idx.reshape(math.comb(B, n), n)  # n = 0 holds one empty subset
    minors = S.matrix[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
    return float(np.sum(np.abs(np.linalg.det(minors)) ** 2))


def test_skipped_minors_vanish(small_graphs):
    """The oracle sums the balanced minors only; the unbalanced ones it
    skips add nothing to the sum over every minor."""
    for graph in small_graphs:
        assert graph.num_bonds <= 16
        S = q.build_bond_scattering(graph)
        for n in range(9):
            assert abs(minor_sum_variance(S, n) - _every_minor_sum(S, n)) <= 1e-13, (graph, n)


def test_minor_sum_reaches_b32(debruijn16):
    """Up to the midpoint of B=32, where C(32, 16) = 6e8 minors would be
    out of reach for a walk over every subset."""
    S = q.build_bond_scattering(debruijn16)
    for n in range(17):
        oracle = minor_sum_variance(S, n)
        assert oracle == pytest.approx(float(q.exact_variance(debruijn16, n)), abs=1e-12)


@pytest.mark.parametrize("p, r", [(3, 1), (1, 3)])
def test_mc_stages_give_the_variance_on_a_dyadic_grid(p, r, dyadic_grid_mean):
    """The phases, Cayley eigenvalues and coefficient expansion, checked to
    rounding rather than to a few standard errors (B = 12 and 16)."""
    graph = q.build_binary_graph(p, r)
    exact = np.array([float(v) for v in q.variance(graph, range(graph.num_bonds + 1))])
    assert np.max(np.abs(dyadic_grid_mean(graph) - exact)) <= 1e-12
