"""Characteristic-polynomial coefficients and their variance, numerically.

Three quantities live here: the coefficient vector of det(U - zeta I) for
one evolution matrix, the Monte Carlo k-average of |a_n|^2, and the
principal-minor oracle sum_{|I|=n} |det S_I|^2 that the k-average
converges to when the bond lengths are incommensurate.  The first two take
their eigenvalues from one route, the Hermitian Cayley transform.  The
oracle evaluates only the minors of subsets balanced at every vertex, the
others being structurally zero, so its cost follows the number of
balanced subsets rather than binomial(B, n).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .orbits import _balanced_subsets, _bond_ids, _in_out, _whole
from .quantize import BondLengths, BondScattering

DEFAULT_K_MAX = 1e5
_UNITARITY_GATE = 1e-6
# Complex entries per summation block (4 MB of matrices): sizes the default
# Monte Carlo batch and the oracle's blocks of minors, whose sums fix the
# output bits.  No array of this size is held.
_STACK_ELEMENTS = 1 << 18
# Complex entries per work stack (1 MB): a block is evaluated in stacks of
# at most this many matrix entries (one matrix if it is larger), which set
# the peak memory and leave the bits alone.
_WORK_ELEMENTS = 1 << 16
# Cayley route for unitary spectra (see _unitary_eigenvalues).
_CAYLEY_ROTATION = 1.0  # rad; keeps -I and permutation matrices off the pole
_CAYLEY_LIMIT = 1e3  # largest norm of the transform accepted
_CAYLEY_STEP = 2.0  # rad; new rotation after a pass hit the pole exactly
_CAYLEY_RETRIES = 3


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Coefficients of det(U - zeta I) = sum_n values[n] zeta^(B-n).

    values[0] = (-1)^B and |values[B]| = 1 for unitary U; for B even the
    self-inversive symmetry reads values[n] = values[B] * conj(values[B-n]).
    """

    values: np.ndarray
    k: float | None = None

    @property
    def degree(self) -> int:
        return int(self.values.size - 1)


def _coefficients_from_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """Expand prod_i (lambda_i - zeta) for a stack of eigenvalue rows.

    Input (M, B), output (M, B+1) with column n holding the coefficient of
    zeta^(B-n).  The product is evaluated at the (B+1)-st roots of unity
    and inverted by a DFT.  Multiplying the factors out coefficient by
    coefficient is exact in theory but explodes for unimodular spectra:
    partial products over phase-clustered eigenvalue subsets have
    coefficients up to binomial(B/2, B/4) that cancel only at the very
    end, wiping out all precision near B ~ 100.  Point values stay O(1),
    so interpolation keeps every coefficient near machine accuracy.
    """
    M, B = eigenvalues.shape
    K = B + 1
    points = np.exp(2j * np.pi * np.arange(K) / K)
    values = np.ones((M, K), dtype=complex)
    for i in range(B):
        values *= eigenvalues[:, i, None] - points[np.newaxis, :]
    # p(zeta) = sum_m c_m zeta^m; forward DFT of the point values / K
    c = np.fft.fft(values, axis=-1) / K
    c[:, B] = (-1.0) ** B  # leading coefficient is exact for any spectrum
    return c[:, ::-1]


def _cayley_spectrum(
    U: np.ndarray, alpha: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of unitary U and V = e^{i alpha} U: the ascending
    eigenvalues mu of the Hermitian part of H = i (I + V)^-1 (I - V), and
    the Frobenius norm of (I + V)^-1 (I - V) per row.

    With W = (I + V)^-1, (I + V)^-1 (I - V) = 2W - I, so one inverse gives
    H and its Hermitian part i (W - W^H), and no stack for I - V is needed:
    ``work``, shaped like U, holds I + V and then W^H.
    The norm (taken as that of 2W) bounds max |mu| and also shows a pole
    that mu can miss: near a singular I + V the error in W is large, and
    the part of it that i (W - W^H) discards can hold the pole.  Reading
    one triangle of iW instead would keep that part and spread it over the
    row.  A pass in which some I + V was exactly singular returns NaN and
    an infinite norm for every row; the batched inverse cannot say which.
    """
    diagonal = np.arange(U.shape[-1])
    plus = np.multiply(U, np.exp(1j * alpha)[:, np.newaxis, np.newaxis], out=work)
    plus[:, diagonal, diagonal] += 1.0
    try:
        W = np.linalg.inv(plus)
        entries = W.view(np.float64).reshape(len(W), -1)
        norm = 2.0 * np.sqrt(np.einsum("ij,ij->i", entries, entries))
        W -= np.conjugate(W.swapaxes(1, 2), out=plus)  # I + V is dead
        W *= 1j
        return np.linalg.eigvalsh(W), norm
    except np.linalg.LinAlgError:
        return np.full(U.shape[:2], np.nan), np.full(len(U), np.inf)


def _gap_rotation(mu: np.ndarray) -> np.ndarray:
    """Extra rotation that puts -1 in the middle of each row's widest
    eigenphase gap; a fixed step for rows whose pass failed."""
    phi = 2.0 * np.arctan(mu)  # eigenphases of V, ascending in [-pi, pi]
    gaps = np.diff(phi, axis=1, append=phi[:, :1] + 2.0 * np.pi)
    widest = np.argmax(gaps, axis=1)[:, np.newaxis]
    middle = np.take_along_axis(phi + 0.5 * gaps, widest, axis=1)[:, 0]
    return np.where(np.isfinite(middle), np.pi - middle, _CAYLEY_STEP)


def _unitary_eigenvalues(U: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of a stack (M, B, B) of unitary matrices, on the unit circle.

    With V = e^{i alpha} U, the Cayley transform H = i (I + V)^-1 (I - V)
    is Hermitian with eigenvalues mu = tan(phi / 2) for the eigenphases phi
    of V, so a batched Hermitian solver finds them, several times faster
    than the general ``eigvals``, and lambda = e^{-i alpha} (1 + i mu) /
    (1 - i mu).  An eigenphase of V near pi makes the transform large, and
    every eigenvalue of the row then carries an error of about eps times
    its norm.  Rows whose norm exceeds the limit are solved again with -1
    rotated into the middle of their widest eigenphase gap.  That gap is
    at least 2 pi / B wide, so afterwards max |mu| < cot(pi / 2B) < B and
    the norm is below B^1.5, which is why the limit is never lower.
    Raises LinAlgError if rows still sit at the pole after the retries.
    ``work`` is scratch shaped like U, allocated when not given.
    """
    if work is None:
        work = np.empty(U.shape, dtype=complex)
    limit = max(_CAYLEY_LIMIT, U.shape[-1] ** 1.5)
    alpha = np.full(len(U), _CAYLEY_ROTATION)
    mu, norm = _cayley_spectrum(U, alpha, work)
    rows = np.flatnonzero(~(norm <= limit))  # NaN-safe
    for _ in range(_CAYLEY_RETRIES):
        if rows.size == 0:
            break
        alpha[rows] += _gap_rotation(mu[rows])
        mu[rows], norm = _cayley_spectrum(U[rows], alpha[rows], work[:rows.size])
        rows = rows[~(norm <= limit)]
    if rows.size:
        raise np.linalg.LinAlgError("Cayley transform kept an eigenvalue at its pole")
    return np.exp(-1j * alpha)[:, np.newaxis] * (1.0 + 1j * mu) / (1.0 - 1j * mu)


def char_poly_coefficients(U: np.ndarray, k: float | None = None) -> CoefficientVector:
    """All B+1 coefficients of det(U - zeta I) via the eigenvalue product.

    Expanding from eigenvalues keeps every coefficient accurate even where
    direct expansion of the determinant would lose digits.  The eigenvalues
    come from the Cayley-transform route of ``mc_variance`` and lie on the
    unit circle; grossly non-unitary input is rejected.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("U must be a square matrix")
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])))
    if defect > _UNITARITY_GATE:
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    eigenvalues = _unitary_eigenvalues(U[np.newaxis])
    return CoefficientVector(values=_coefficients_from_eigenvalues(eigenvalues)[0], k=k)


def riemann_siegel_residual(coefficients: CoefficientVector) -> float:
    """Max deviation from the self-inversive symmetry
    a_n = a_B conj(a_{B-n}); near machine precision for unitary input."""
    a = coefficients.values
    return float(np.max(np.abs(a - a[-1] * np.conj(a[::-1]))))


@dataclass(frozen=True)
class VarianceEstimate:
    """Monte Carlo estimate of <|a_n|^2> with its standard error."""

    n: int
    mean: float
    std_error: float
    samples: int
    seed: int
    k_max: float


def _k_slice(seed: int, k_max: float, start: int, count: int) -> np.ndarray:
    """Draws start .. start+count-1 of ``uniform(0, k_max, samples)`` on
    ``Philox(key=seed)``, without drawing the ones before them.

    Each Philox counter step yields four doubles, so the generator skips
    ``start // 4`` steps and then discards ``start % 4`` doubles.
    """
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(start // 4)
    rng = np.random.Generator(bit_generator)
    rng.random(start % 4)
    return rng.uniform(0.0, k_max, count)


def mc_variance(
    S: BondScattering,
    lengths: BondLengths,
    n_set: Iterable[int] | None = None,
    samples: int = 100_000,
    seed: int = 0,
    k_max: float = DEFAULT_K_MAX,
    *,
    threads: int = 1,
    batch_size: int | None = None,
) -> list[VarianceEstimate]:
    """Average |a_n|^2 over k drawn uniformly from [0, k_max).

    A counter-based generator keyed on ``seed`` fixes the k sample: each
    batch draws its own slice of that one stream (see ``_k_slice``), so
    memory does not grow with ``samples``.  Per-batch sums, and sums of
    squares about the batch mean, merge in batch order (the latter by the
    pairwise update of Chan, Golub and LeVeque, which does not cancel where
    |a_n|^2 barely varies), so results are bit-identical for a given
    (samples, seed, k_max, batch_size) regardless of thread count, which
    is capped at the batch count and the usable CPUs.  The batch size
    (by default about 2^18 matrix entries) fixes the bits.  The memory is
    set apart from it: a batch is evaluated in work stacks of about 2^16
    entries, two per thread (U, and the Cayley operand, which then takes
    the conjugate transpose of its inverse), allocated once per call and
    reused.  Eigenvalue failures propagate; an exactly singular I + V
    sends only its own work stack, not the whole batch, to the fixed-step
    retry.

    ``std_error`` covers sampling noise only.  A finite ``k_max`` leaves a
    bias on top of it that depends on the bond lengths and can reach
    several standard errors for particular length draws, so comparisons
    against exact values allow four standard errors rather than three.

    Raises ValueError unless ``k_max`` is positive and finite, ``threads``
    is at least 1 and ``batch_size`` is None or at least 1, or if the seed,
    an index or a count is not an integer (a float or bool is refused, never
    truncated).
    """
    B = S.num_bonds
    if len(lengths) != B:
        raise ValueError("scattering matrix and length vector disagree on the bond count")
    _whole(seed, "seeds")  # Philox would read 1.5 or True as key 1
    if _whole(samples, "sample counts") < 2:
        raise ValueError("need at least 2 samples")
    if not (k_max > 0 and math.isfinite(k_max)):
        raise ValueError("k_max must be positive and finite")
    if _whole(threads, "thread counts") < 1:
        raise ValueError("threads must be at least 1")
    if batch_size is not None and _whole(batch_size, "batch sizes") < 1:
        raise ValueError("batch_size must be at least 1 (or None)")
    if S.unitarity_defect() > _UNITARITY_GATE:
        raise ValueError("scattering matrix is not unitary")
    ns = sorted(range(B + 1) if n_set is None
                else {_whole(n, "coefficient indices") for n in n_set})
    if ns and not (0 <= ns[0] and ns[-1] <= B):
        raise ValueError(f"coefficient indices must lie in 0..{B}")

    if batch_size is None:
        batch_size = max(1, _STACK_ELEMENTS // (B * B))
    starts = range(0, samples, batch_size)
    stack = min(batch_size, max(1, _WORK_ELEMENTS // (B * B)))

    matrix = S.matrix
    length_values = lengths.values
    buffers = threading.local()  # per thread, dropped with this call

    def run_batch(start: int) -> tuple[np.ndarray, np.ndarray]:
        k_batch = _k_slice(seed, float(k_max), start, min(batch_size, samples - start))
        phases = np.exp(1j * np.outer(k_batch, length_values))
        if not hasattr(buffers, "U"):
            buffers.U, buffers.work = np.empty((2, stack, B, B), dtype=complex)
        # |a_n| is taken once per batch, on the reversed view that one
        # batch-wide expansion returns: numpy rounds it differently in its
        # vector and scalar loops, so a row's bits depend on where it sits
        coefficients = np.empty((len(phases), B + 1), dtype=complex)[:, ::-1]
        for row in range(0, len(phases), stack):
            rows = phases[row:row + stack]
            U = np.multiply(matrix, rows[:, np.newaxis, :], out=buffers.U[:len(rows)])
            eigenvalues = _unitary_eigenvalues(U, buffers.work[:len(rows)])
            coefficients[row:row + stack] = _coefficients_from_eigenvalues(eigenvalues)
        power = np.abs(coefficients) ** 2
        part_sum = power.sum(axis=0)
        return part_sum, ((power - part_sum / len(power)) ** 2).sum(axis=0)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=min(threads, len(starts), cpus or 1)) as pool:
        partials = list(pool.map(run_batch, starts))

    # fixed order, independent of scheduling; batch `start` follows `start` samples
    total, centred = partials[0]
    for start, (part_sum, part_centred) in zip(starts[1:], partials[1:]):
        size = min(batch_size, samples - start)
        delta = part_sum / size - total / start
        centred += part_centred + delta * delta * (start * size / (start + size))
        total += part_sum

    return [
        VarianceEstimate(n=n, mean=float(total[n] / samples),
                         std_error=float(math.sqrt(centred[n] / (samples - 1) / samples)),
                         samples=samples, seed=seed, k_max=float(k_max))
        for n in ns
    ]


def subset_contribution(
    S: BondScattering, subset: Iterable[int]
) -> tuple[float, int | None]:
    """(|det S_I|^2, N) for one bond subset I, the minor taken by the
    oracle's :func:`_minor_power` (1.0 for the empty subset).

    N counts the vertices with two subset bonds through them.  Unbalanced
    subsets have a structurally zero minor and return (0.0, None).
    """
    graph = S.graph
    subset_t = tuple(sorted(set(_bond_ids(graph, subset))))
    ins, outs = _in_out(graph, subset_t)
    if ins != outs:
        return 0.0, None
    N = sum(1 for c in ins.values() if c == 2)
    return _minor_power(S.matrix, [subset_t]), N


def minor_sum_variance(S: BondScattering, n: int) -> float:
    """Oracle: sum_{|I|=n} |det S_I|^2 over the n-bond principal minors.

    A subset with more selected bonds into some vertex than out of it has
    linearly dependent columns there, so only the subsets balanced at every
    vertex are summed; the balanced-subset search of :mod:`orbits` lists
    them.  Each block of about 2^18 matrix entries is summed in one call,
    which fixes the bits; its determinants are taken in work stacks of
    about 2^16 entries, which set the memory.  This is the
    incommensurate-lengths limit of the k-average.  Raises ValueError
    unless ``n`` is an integer (not a float or bool) in 0..B.
    """
    B = S.num_bonds
    if not 0 <= _whole(n, "coefficient indices") <= B:
        raise ValueError(f"n must lie in 0..{B}")
    if n == 0:
        return 1.0
    chunk = max(1, _STACK_ELEMENTS // (n * n))
    total = 0.0
    block: list[tuple[int, ...]] = []
    for subset in _balanced_subsets(S.graph, n):
        block.append(subset)
        if len(block) == chunk:
            total += _minor_power(S.matrix, block)
            block = []
    return total + _minor_power(S.matrix, block)


def _minor_power(matrix: np.ndarray, subsets: list[tuple[int, ...]]) -> float:
    """sum |det S_I|^2 over equal-size subsets I, in one ``np.sum`` call
    over determinants taken in work stacks."""
    if not subsets:
        return 0.0
    idx = np.array(subsets, dtype=np.intp)  # an empty subset is a 0x0 minor, det 1
    stack = max(1, _WORK_ELEMENTS // max(1, idx.shape[1] ** 2))
    dets = np.empty(len(idx), dtype=complex)  # |det| once: see mc_variance's batches
    for row in range(0, len(idx), stack):
        part = idx[row:row + stack]
        minors = matrix[part[:, :, np.newaxis], part[:, np.newaxis, :]]
        dets[row:row + stack] = np.linalg.det(minors)
    return float(np.sum(np.abs(dets) ** 2))
