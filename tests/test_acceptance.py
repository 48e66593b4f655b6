"""End-to-end acceptance gate.

Ten numbered checks cover the full pipeline: the two reference variance
tables, the three-way agreement between class-count formula, principal-minor
oracle and Monte Carlo, the per-subset and cover-level identities behind the
exact formula, the brute-force cancellation of repeated-bond pseudo orbits,
the self-inversive coefficient symmetry, the Lyndon parity machinery, and the
midpoint convergence trend across graph sizes.

Each test prints one verdict line (run with ``-s`` to see them all); the
assert carries the same message.  Checks 1-3 also enforce their runtime
budgets.  Check 10 is measured honestly at desk-scale sample counts; see the
verdict line for the observed margins.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

import qgspectra as q
from qgspectra.classify import (
    class_counts,
    classify_pseudo_orbit,
    c_gamma,
    exact_variance,
    variance_from_classes,
)
from qgspectra.lyndon import (
    lyndon_tuples,
    symmetric_group_parity_sum,
    tuple_parity_census,
)
from qgspectra.orbits import (
    admissible_subsets,
    covers_of_subset,
    enumerate_pseudo_orbits,
    group_by_bond_multiset,
)
from qgspectra.spectral import (
    char_poly_coefficients,
    mc_variance,
    minor_sum_variance,
    riemann_siegel_residual,
    subset_contribution,
)

V8_P0 = [1, 2, 2, 4, 8, 8, 8, 16, 16]
V8_PHAT = [{}, {}, {}, {}, {}, {1: 8}, {1: 20}, {1: 16, 2: 8}, {1: 16, 2: 24}]
V8_VAR = [Fraction(x) for x in ("1", "1", "1/2", "1/2", "1/2", "3/4", "3/4", "5/8", "9/16")]

V6_P0 = [1, 2, 3, 6, 6, 8, 8]
V6_PHAT = [{}, {}, {}, {}, {1: 4}, {1: 4}, {1: 8}]
V6_VAR = [Fraction(x) for x in ("1", "1", "3/4", "3/4", "7/8", "1/2", "3/8")]

MC_SAMPLES = 1_000_000
MC_THREADS = 2
TREND_SAMPLES = 20_000


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    msg = f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(msg)
    return msg


def test_01_v8_table(debruijn8):
    t0 = time.perf_counter()
    bad = []
    for n in range(9):
        counts = class_counts(debruijn8, n)
        if (counts.p0, counts.phat) != (V8_P0[n], V8_PHAT[n]):
            bad.append(f"n={n} counts {counts.p0}/{counts.phat}")
        if variance_from_classes(counts) != V8_VAR[n]:
            bad.append(f"n={n} variance {variance_from_classes(counts)}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    detail = "n=0..8 counts and dyadic variances exact" if not bad else "; ".join(bad)
    msg = _verdict(1, "V8 de Bruijn table", ok, f"{detail}; {elapsed:.1f}s")
    assert ok, msg


def test_02_v6_table(binary6):
    t0 = time.perf_counter()
    bad = []
    for n in range(7):
        counts = class_counts(binary6, n)
        if (counts.p0, counts.phat) != (V6_P0[n], V6_PHAT[n]):
            bad.append(f"n={n} counts {counts.p0}/{counts.phat}")
        if variance_from_classes(counts) != V6_VAR[n]:
            bad.append(f"n={n} variance {variance_from_classes(counts)}")
    elapsed = time.perf_counter() - t0
    # the n=4 row is a known discrepancy against the reference table: a
    # bond-distinct count of 10 would give (10 + 2*4)/16 = 9/8, while the
    # enumerated 6 gives the exact 7/8 that every other route confirms
    assert Fraction(10 + 2 * 4, 16) != V6_VAR[4]
    assert Fraction(6 + 2 * 4, 16) == V6_VAR[4]
    ok = not bad and elapsed < 5.0
    detail = (
        "n=0..6 exact; n=4 census is 6 bond-distinct + 4 one-encounter "
        "(a count of 10 would give 9/8, contradicting the exact 7/8)"
        if not bad
        else "; ".join(bad)
    )
    msg = _verdict(2, "V6 binary table", ok, f"{detail}; {elapsed:.1f}s")
    assert ok, msg


def test_03_oracle_equivalence(debruijn8, binary6, scattering8, scattering6):
    t0 = time.perf_counter()
    worst = 0.0
    for graph, S in ((debruijn8, scattering8), (binary6, scattering6)):
        for n in range(graph.num_bonds // 2 + 1):
            exact = float(exact_variance(graph, n))
            worst = max(worst, abs(minor_sum_variance(S, n) - exact))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    msg = _verdict(
        3,
        "class-count formula vs minor oracle",
        ok,
        f"both graphs, all n <= B/2, max |diff| = {worst:.2e}; {elapsed:.1f}s",
    )
    assert ok, msg


def test_04_mc_agreement(debruijn8, binary6, scattering8, scattering6, lengths8, lengths6):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_at = ""
    for graph, S, lengths, n_top, seed in (
        (debruijn8, scattering8, lengths8, 8, 7),
        (binary6, scattering6, lengths6, 6, 101),
    ):
        estimates = mc_variance(
            S, lengths, range(n_top + 1), samples=MC_SAMPLES, seed=seed,
            threads=MC_THREADS,
        )
        for est in estimates:
            tol = max(5e-3, 3.0 * est.std_error)
            err = abs(est.mean - float(exact_variance(graph, est.n)))
            if err / tol > worst_ratio:
                worst_ratio = err / tol
                worst_at = f"V{graph.vertex_count} n={est.n}"
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0
    msg = _verdict(
        4,
        "Monte Carlo vs exact",
        ok,
        f"M={MC_SAMPLES}, worst |err|/max(5e-3, 3*stderr) = {worst_ratio:.2f} "
        f"at {worst_at}; {elapsed:.0f}s",
    )
    assert ok, msg


def test_05_subset_identity(debruijn8, binary6, scattering8, scattering6):
    worst = 0.0
    checked = 0
    for graph, S in ((debruijn8, scattering8), (binary6, scattering6)):
        for n in range(min(8, graph.num_bonds) + 1):
            for subset in admissible_subsets(graph, n):
                sq, N = subset_contribution(S, subset)
                worst = max(worst, abs(sq - 2.0 ** (2 * N - n)))
                checked += 1
    ok = worst <= 1e-12
    msg = _verdict(
        5,
        "per-subset minor identity",
        ok,
        f"|det S_I|^2 = 2^(2N-n) on {checked} admissible subsets, "
        f"max |diff| = {worst:.2e}",
    )
    assert ok, msg


def test_06_cover_structure(debruijn8, binary6):
    families = 0
    bad = []
    for graph in (debruijn8, binary6):
        for n in range(min(8, graph.num_bonds) + 1):
            for subset in admissible_subsets(graph, n):
                fam = covers_of_subset(graph, subset)
                families += 1
                if len(fam.covers) != 2**fam.encounter_count:
                    bad.append(f"count at {subset}")
                shared = {c.signed_amplitude for c in fam.covers}
                if len(shared) != 1:
                    bad.append(f"amplitude split at {subset}")
    ok = not bad
    detail = (
        f"2^N covers with one shared signed amplitude on {families} subsets"
        if ok
        else "; ".join(bad[:3])
    )
    msg = _verdict(6, "cover structure", ok, detail)
    assert ok, msg


def test_07_cancellation(debruijn8, binary6):
    checked = 0
    bad = []
    for graph in (debruijn8, binary6):
        for n in range(8):
            total = Fraction(0)
            pos = enumerate_pseudo_orbits(graph, n, mode="general")
            for group in group_by_bond_multiset(pos).values():
                for po in group:
                    C = c_gamma(graph, po, group)
                    total += C
                    checked += 1
                    tag = classify_pseudo_orbit(graph, po)
                    if tag.kind == "excluded":
                        if C != 0:
                            bad.append(f"nonzero C for {po.orbits}")
                    elif C != Fraction(2**tag.encounters, 2**n):
                        bad.append(f"C != 2^(N-n) for {po.orbits}")
            if total != exact_variance(graph, n):
                bad.append(f"V{graph.vertex_count} n={n} total {total}")
    ok = not bad
    detail = (
        f"{checked} pseudo orbits: repeated-bond C = 0, bond-distinct "
        f"C = 2^(N-n), totals match the exact variance"
        if ok
        else "; ".join(bad[:3])
    )
    msg = _verdict(7, "partner-sum cancellation (n <= 7)", ok, detail)
    assert ok, msg


def test_08_self_inversive_symmetry(scattering8, scattering6, lengths8, lengths6):
    rng = np.random.default_rng(88)
    worst_residual = 0.0
    worst_defect = 0.0
    for S, lengths in ((scattering8, lengths8), (scattering6, lengths6)):
        B = S.num_bonds
        for k in rng.uniform(0.0, 200.0, 100):
            U = q.evolution_operator(S, lengths, float(k))
            worst_defect = max(
                worst_defect, float(np.max(np.abs(U.conj().T @ U - np.eye(B))))
            )
            worst_residual = max(
                worst_residual, riemann_siegel_residual(char_poly_coefficients(U, k))
            )
    ok = worst_residual < 1e-10 and worst_defect < 1e-12
    msg = _verdict(
        8,
        "self-inversive symmetry",
        ok,
        f"100 random k per graph, max residual = {worst_residual:.2e}, "
        f"max unitarity defect = {worst_defect:.2e}",
    )
    assert ok, msg


def test_09_lyndon_parity():
    tuples = lyndon_tuples({1: 2, 2: 2})
    verbatim = [t.words for t in tuples] == [
        ((1,), (1, 2), (2,)),
        ((1,), (1, 2, 2)),
        ((1, 1, 2), (2,)),
        ((1, 1, 2, 2),),
    ] and [t.parity for t in tuples] == [-1, 1, 1, -1]

    unbalanced = []
    for counts in itertools.product(range(9), repeat=3):
        content = {letter: c for letter, c in zip((1, 2, 3), counts) if c}
        if len(content) < 2 or sum(counts) > 8:
            continue
        even, odd = tuple_parity_census(content)
        if even != odd:
            unbalanced.append(content)

    sums = [symmetric_group_parity_sum(l) for l in range(2, 7)]
    ok = verbatim and not unbalanced and sums == [0] * 5
    msg = _verdict(
        9,
        "Lyndon tuple parity",
        ok,
        "4 tuples for {1:2, 2:2} verbatim; even = odd for every mixed "
        "content with |M| <= 8 over 3 letters; S_l sums vanish for l = 2..6",
    )
    assert ok, msg


def test_10_midpoint_trend():
    """Midpoint variance for r = 2..5, desk-scale Monte Carlo.

    The target inequality asks the r=5 estimate to sit closer to 1/2 than
    the r=3 estimate by more than three combined standard errors.  The
    measured margin is printed either way, with the exact midpoint
    variance next to each estimate.
    """
    t0 = time.perf_counter()
    results = {}
    exact = {}
    for r in (2, 3, 4, 5):
        graph = q.build_binary_graph(1, r)
        S = q.build_bond_scattering(graph)
        lengths = q.sample_bond_lengths(graph, 300 + r)
        est = mc_variance(
            S, lengths, [graph.num_bonds // 2], samples=TREND_SAMPLES,
            seed=400 + r, threads=MC_THREADS,
        )[0]
        results[r] = est
        exact[r] = exact_variance(graph, est.n)
        print(
            f"     r={r} B={graph.num_bonds:3d} n={est.n:2d}: "
            f"est = {est.mean:.4f} +- {est.std_error:.4f} "
            f"(|est - 1/2| = {abs(est.mean - 0.5):.4f}), exact = {exact[r]}"
        )
    d3 = abs(results[3].mean - 0.5)
    d5 = abs(results[5].mean - 0.5)
    combined = np.hypot(results[3].std_error, results[5].std_error)
    margin = d3 - d5
    elapsed = time.perf_counter() - t0
    ok = margin > 3.0 * combined
    msg = _verdict(
        10,
        "midpoint trend r=5 vs r=3",
        ok,
        f"need |est(5) - 1/2| < |est(3) - 1/2| by > 3 combined stderr = "
        f"{3.0 * combined:.4f}, measured margin = {margin:+.4f}; "
        + "; ".join(
            f"r={r}: est {results[r].mean:.4f} +- {results[r].std_error:.4f}, "
            f"exact {exact[r]}"
            for r in results
        )
        + f"; M={TREND_SAMPLES} per graph, {elapsed:.0f}s",
    )
    assert ok, msg
