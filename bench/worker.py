"""One workload of the qgspectra benchmark, run inside one child process.

``run.py`` starts this script; it is not meant to be called by hand, but it
can be:

    python3 bench/worker.py body   --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/worker.py setup  --workload census --seed 1
    python3 bench/worker.py oracle --workload census --seed 1

``body`` sets the workload up, repeats its timed body for about ``--seconds``
and checks every output right after its iteration, outside the timed region.
With ``--trace 1`` it alternates untraced and traced iterations: the traced
ones record spans around each call into ``qgspectra`` and yield the per-layer
metrics.  ``setup`` only times import plus graph, scattering-matrix and
bond-length construction.  ``oracle`` computes the principal-minor oracle for
the seeded random graph of ``census``; it runs in a process of its own so
that its memory does not count toward the workload's peak RSS.

Each mode prints one JSON object as its last line of standard output.
Nothing from numpy or qgspectra is imported at module level, so that
``setup`` times the import, and ``run.py`` can import the helpers here.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("census", "mc", "table", "audit")

# Graphs each workload builds during set-up: key -> (kind, p or V, r).
GRAPHS = {
    "census": {"b32": ("binary", 1, 4), "b24": ("binary", 3, 2), "rand": ("random", 12, 0)},
    "mc": {"b64": ("binary", 1, 5)},
    "table": {"b24": ("binary", 3, 2)},
    "audit": {"b32": ("relabel", 1, 4)},
}

# census: (graph, largest n) for the class_counts sweeps.  B=32 stops at
# n=6 (C(32,7) = 3.4M subsets alone takes ~4 s) and the random graph at
# n=7 (its cost at n=8 varies by +-25% across seeds), so that three
# iterations fit in one run.
CENSUS_PLAN = (("b32", 6), ("b24", 9), ("rand", 7))
MC_SAMPLES = 4000
MC_THREADS = 2
TABLE_N_MAX = 8
TABLE_SAMPLES = 20000
TABLE_THREADS = 2
AUDIT_N = 16
AUDIT_DIAGONAL_N = range(15)
REPLAY_SAMPLES = 256  # one single-thread MC batch replayed for eigvals_share
EVOLUTION_REPLAY = 64  # evolution_operator calls timed in traced set-up

TABLE_HEADER = ["n", "p0", "phat1", "phat2", "exact_fraction", "exact", "oracle",
                "mc_mean", "mc_stderr", "abs_error"]
ORACLE_TOL = 1e-12
MC_SIGMAS = 4.0


def import_qgspectra():
    sys.path.insert(0, str(SRC))
    import qgspectra
    import qgspectra.cli

    return qgspectra


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


# --- tracing ----------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    active = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.latest_balanced: dict[tuple[int, int], int] = {}  # (B, n) -> last census
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped


class NullTracer:
    active = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass


def span_summary(spans: list[list]) -> dict[tuple[str, str], list]:
    """(root span name, span name) -> [inclusive s, self s, calls].

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because every span here is opened and
    closed on one thread.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    roots: list[int] = []
    out: dict[tuple[str, str], list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
        acc = out.setdefault((spans[roots[i]][0], name), [0.0, 0.0, 0])
        acc[0] += end - start
        acc[1] += end - start - child_time[i]
        acc[2] += 1
    return out


@contextmanager
def patched(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


# --- set-up -----------------------------------------------------------


def random_four_regular_edges(seed: int, vertex_count: int) -> list[tuple[int, int]]:
    """Configuration-model 4-regular multigraph; loops and parallel edges allowed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    stubs = rng.permutation(np.repeat(np.arange(vertex_count), 4))
    return [(int(stubs[2 * i]), int(stubs[2 * i + 1])) for i in range(2 * vertex_count)]


def build_graph(q, spec, seed: int, tr):
    kind, a, b = spec
    if kind == "binary":
        with tr.span("graphs.build_binary_graph"):
            return q.build_binary_graph(a, b)
    if kind == "relabel":
        # the seed permutes the vertex labels: an isomorphic graph with
        # other bond ids, port slots and signs, and the same census
        with tr.span("graphs.build_binary_graph"):
            base = q.build_binary_graph(a, b)
        import numpy as np

        perm = np.random.default_rng(seed).permutation(base.vertex_count)
        bonds = sorted((int(perm[u]), int(perm[v])) for u, v in base.bonds)
        with tr.span("graphs.validate_graph"):
            graph = q.DirectedGraph(base.vertex_count, tuple(bonds))
            if not q.validate_graph(graph).passed:
                raise ValueError("relabelled graph failed validation")
        return graph
    # random: redraw (deterministically) until the multigraph is connected
    attempt = 0
    while True:
        edges = random_four_regular_edges(seed * 1000 + attempt, a)
        try:
            with tr.span("graphs.orient_four_regular"):
                return q.orient_four_regular(edges, a)
        except ValueError:
            attempt += 1


def setup(q, workload: str, seed: int, tr) -> dict:
    """Build every graph of the workload with its scattering matrix and lengths."""
    ctx = {}
    for key, spec in GRAPHS[workload].items():
        graph = build_graph(q, spec, seed, tr)
        with tr.span("quantize.build_bond_scattering"):
            S = q.build_bond_scattering(graph)
        with tr.span("quantize.sample_bond_lengths"):
            lengths = q.sample_bond_lengths(graph, seed)
        ctx[key] = (graph, S, lengths)
    return ctx


# --- exact-route split ------------------------------------------------


def traced_class_counts(q, tr):
    """class_counts(graph, n) rebuilt from its public parts, with spans.

    Calls admissible_subsets, covers_of_subset and classify_pseudo_orbit in
    the order class_counts uses them (all covers, sorted, then classified)
    and returns the same ClassCounts.
    """

    def class_counts(graph, n, mode="bond_distinct", cap=None):
        if mode != "bond_distinct":
            raise ValueError("the traced census covers the bond-distinct path only")
        with tr.span("classify.class_counts"):
            subsets = q.admissible_subsets(graph, n)
            pseudo_orbits = []
            balanced = 0
            while True:
                with tr.span("orbits.admissible_subsets"):
                    subset = next(subsets, None)
                if subset is None:
                    break
                balanced += 1
                with tr.span("orbits.covers_of_subset"):
                    pseudo_orbits.extend(q.covers_of_subset(graph, subset).covers)
            pseudo_orbits.sort(key=lambda po: po.orbits)
            p0 = excluded = 0
            phat: dict[int, int] = {}
            for po in pseudo_orbits:
                with tr.span("classify.classify_pseudo_orbit"):
                    tag = q.classify_pseudo_orbit(graph, po)
                if tag.kind == "P0":
                    p0 += 1
                elif tag.kind == "PhatN":
                    phat[tag.encounters] = phat.get(tag.encounters, 0) + 1
                else:
                    excluded += 1
        tr.count("orbits.subsets_visited", math.comb(graph.num_bonds, n))
        tr.count("orbits.balanced_subsets", balanced)
        tr.latest_balanced[(graph.num_bonds, n)] = balanced
        tr.count("orbits.pseudo_orbits", len(pseudo_orbits))
        return q.ClassCounts(n=n, p0=p0, phat=dict(sorted(phat.items())), excluded=excluded)

    return class_counts


# --- workloads: body and check ----------------------------------------
#
# body(q, ctx, seed, iteration, tr) runs the timed work and returns its
# outputs; check(q, ctx, ref, seed, out) runs after the timer stopped and
# returns (operations attempted, failures).  A failure is (message,
# mc_gate): mc_gate failures are a Monte Carlo estimate outside its gate
# around the exact value, from sampling noise or from the finite k range.
# The program reports those itself (report table exits 4), so its outputs
# stay consistent and `correct` stays true, but the operation failed.  The
# other failures mean the program computed something wrong.


def census_body(q, ctx, seed, iteration, tr):
    counts = traced_class_counts(q, tr) if tr.active else q.class_counts
    return {
        key: [counts(ctx["graphs"][key][0], n) for n in range(n_max + 1)]
        for key, n_max in CENSUS_PLAN
    }


def census_rows(out) -> dict:
    """Census as plain data: key -> [[n, p0, {N: count}, excluded, variance]]."""
    from qgspectra.classify import variance_from_classes

    return {
        key: [
            [c.n, c.p0, {str(N): v for N, v in c.phat.items()}, c.excluded,
             str(variance_from_classes(c))]
            for c in counts
        ]
        for key, counts in out.items()
    }


def census_check(q, ctx, ref, seed, out):
    rows = census_rows(out)
    failures = []
    b32 = ref["census_b32"]
    for n, p0, phat, excluded, variance in rows["b32"]:
        want = (b32["p0"][n], b32["phat"][n], 0, b32["variance"][n])
        if (p0, phat, excluded, variance) != want:
            failures.append((f"census B=32 n={n}: got {(p0, phat, excluded, variance)}, want {want}", False))
    b24 = {row[0]: row for row in ref["table_b24"]["rows"]}
    for n, p0, phat, excluded, variance in rows["b24"]:
        got = [str(n), str(p0), str(phat.get("1", 0)), str(phat.get("2", 0)), variance]
        if got != b24[str(n)] or set(phat) - {"1", "2"} or excluded:
            failures.append((f"census B=24 n={n}: got {got}, want {b24[str(n)]}", False))
    # the random graph is compared with the oracle by run.py (oracle mode)
    if ctx.setdefault("census_rand", rows["rand"]) != rows["rand"]:
        failures.append(("random-graph census differs between iterations", False))
    attempted = sum(n_max + 1 for _key, n_max in CENSUS_PLAN)
    return attempted, failures


def census_oracle(q, seed: int) -> list[float]:
    ctx = setup(q, "census", seed, NullTracer())
    S = ctx["rand"][1]
    n_max = dict(CENSUS_PLAN)["rand"]
    return [q.minor_sum_variance(S, n) for n in range(n_max + 1)]


def census_oracle_failures(rand_rows, oracle: list[float]) -> list[tuple[str, bool]]:
    """The seeded random graph's census must give the oracle's variances."""
    failures = []
    if len(rand_rows) != len(oracle):
        return [(f"random-graph census has {len(rand_rows)} rows, oracle {len(oracle)}", False)]
    for (n, _p0, _phat, _excluded, variance), value in zip(rand_rows, oracle):
        if abs(float(Fraction(variance)) - value) > ORACLE_TOL:
            failures.append((f"random graph n={n}: census {variance} vs oracle {value!r}", False))
    return failures


def mc_seed(seed: int, iteration: int) -> int:
    # every iteration draws its own k stream, so the standard error used by
    # mc_time_to_stderr_s can be pooled over the iterations of a run
    return seed * 1000 + iteration


def mc_body(q, ctx, seed, iteration, tr):
    _graph, S, lengths = ctx["graphs"]["b64"]
    with tr.span("spectral.mc_variance"):
        estimates = q.mc_variance(
            S, lengths, None, samples=MC_SAMPLES, seed=mc_seed(seed, iteration),
            threads=MC_THREADS,
        )
    tr.count("spectral.mc_samples", MC_SAMPLES)
    return estimates


def mc_check(q, ctx, ref, seed, out):
    by_n = {e.n: e for e in out}
    B = ctx["graphs"]["b64"][0].num_bonds
    failures = []
    if sorted(by_n) != list(range(B + 1)):
        return 1, [(f"mc returned indices {sorted(by_n)}", False)]
    e0 = by_n[0]
    if abs(e0.mean - float(Fraction(ref["mc_b64"]["n0"]))) > 1e-12:
        failures.append((f"mc n=0 mean {e0.mean!r} is not 1", False))
    for n, key in ((1, "n1"), (B // 2, "midpoint")):
        e = by_n[n]
        want = float(Fraction(ref["mc_b64"][key]))
        if not abs(e.mean - want) <= MC_SIGMAS * e.std_error:
            failures.append((f"mc n={n} mean {e.mean:.6f} is {abs(e.mean - want) / e.std_error:.2f} "
                             f"stderr from {want:.6f}", True))
    if not all(math.isfinite(e.mean) and e.mean >= 0 for e in out):
        failures.append(("mc returned a negative or non-finite mean", False))
    mid = by_n[B // 2]
    ctx.setdefault("mc_var_per_sample", []).append(mid.std_error**2 * mid.samples)
    return 1, failures


def table_argv(seed: int, expect: Path, out: Path) -> list[str]:
    return ["report", "table", "--p", "3", "--r", "2", "--n-max", str(TABLE_N_MAX),
            "--samples", str(TABLE_SAMPLES), "--threads", str(TABLE_THREADS),
            "--seed", str(seed), "--expect", str(expect), "--out", str(out)]


def table_body(q, ctx, seed, iteration, tr):
    out = ctx["tmp"] / f"table-{iteration}.csv"
    argv = table_argv(seed, ctx["expect"], out)
    if not tr.active:
        return q.cli.main(argv), out
    cli = q.cli

    def oracle(S, n):
        tr.count("spectral.minors_evaluated", math.comb(S.num_bonds, n))
        tr.count("spectral.oracle_nonzero", tr.latest_balanced.get((S.num_bonds, n), 0))
        return q.minor_sum_variance(S, n)

    def mc(*args, **kwargs):
        bound = inspect.signature(q.mc_variance).bind(*args, **kwargs)
        tr.count("spectral.mc_samples", bound.arguments["samples"])
        return q.mc_variance(*args, **kwargs)

    replacements = {
        "build_binary_graph": tr.wrap("graphs.build_binary_graph", q.build_binary_graph),
        "build_bond_scattering": tr.wrap("quantize.build_bond_scattering", q.build_bond_scattering),
        "sample_bond_lengths": tr.wrap("quantize.sample_bond_lengths", q.sample_bond_lengths),
        "class_counts": traced_class_counts(q, tr),
        "exact_variance": tr.wrap("classify.exact_variance", q.exact_variance),
        "minor_sum_variance": tr.wrap("spectral.minor_sum_variance", oracle),
        "mc_variance": tr.wrap("spectral.mc_variance", mc),
    }
    with patched(cli, replacements), tr.span("cli.main"):
        code = cli.main(argv)
    return code, out


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    import csv

    with open(path, newline="") as handle:
        lines = list(csv.reader(handle))
    return lines[0], lines[1:]


def table_check(q, ctx, ref, seed, out):
    code, path = out
    failures = []
    try:
        header, rows = read_table(path)
        sidecar = json.loads(Path(str(path) + ".meta.json").read_text())
    except (OSError, ValueError, IndexError) as exc:
        return 1, [(f"table output unreadable (exit {code}): {exc}", False)]
    ctx.setdefault("sidecars", []).append(sidecar.get("timings", {}))
    if header != TABLE_HEADER:
        return 1, [(f"table header {header}", False)]
    want = {row[0]: row for row in ref["table_b24"]["rows"]}
    diverged = False
    if [row[0] for row in rows] != [str(n) for n in range(TABLE_N_MAX + 1)]:
        failures.append((f"table rows {[row[0] for row in rows]}", False))
    for row in rows:
        record = dict(zip(header, row))
        if row[:5] != want.get(row[0]):
            failures.append((f"table n={row[0]}: {row[:5]} vs reference {want.get(row[0])}", False))
        exact, oracle = float(record["exact"]), float(record["oracle"])
        if abs(exact - oracle) > ORACLE_TOL:
            failures.append((f"table n={row[0]}: exact {exact!r} vs oracle {oracle!r}", False))
        mean, stderr = float(record["mc_mean"]), float(record["mc_stderr"])
        if abs(mean - exact) > max(5e-3, 3 * stderr):
            diverged = True
    if diverged and code == 4:
        failures.append(("report table exit 4: an MC estimate lies beyond max(mc_tol, 3 stderr)"
                         " of the exact value", True))
    elif code != 0 or diverged:
        failures.append((f"report table exit {code}, MC beyond 3 stderr: {diverged}", False))
    digest = path.read_text()
    if ctx.setdefault("first_csv", digest) != digest:
        failures.append(("report table output differs between iterations of one seed", False))
    path.unlink(missing_ok=True)
    Path(str(path) + ".meta.json").unlink(missing_ok=True)
    return 1, failures


def audit_body(q, ctx, seed, iteration, tr):
    graph = ctx["graphs"]["b32"][0]
    with tr.span("orbits.enumerate_pseudo_orbits"):
        pseudo_orbits = q.enumerate_pseudo_orbits(graph, AUDIT_N, mode="general")
    with tr.span("classify.classify_pseudo_orbit"):
        tags = [q.classify_pseudo_orbit(graph, po) for po in pseudo_orbits]
    with tr.span("orbits.group_by_bond_multiset"):
        groups = q.group_by_bond_multiset(pseudo_orbits)
    with tr.span("classify.c_gamma"):
        partner_sums = [[q.c_gamma(graph, po, group) for po in group] for group in groups.values()]
    with tr.span("classify.diagonal_approximation"):
        diagonal = [q.diagonal_approximation(graph, n) for n in AUDIT_DIAGONAL_N]
    contents = [entry["content"] for entry in ctx["lyndon"]]
    with tr.span("lyndon.tuple_parity_census"):
        parity = [q.tuple_parity_census({int(a): c for a, c in content.items()})
                  for content in contents]
    tr.count("orbits.general_pseudo_orbits", len(pseudo_orbits))
    tr.count("classify.partner_groups", len(groups))
    tr.count("lyndon.tuples", sum(even + odd for even, odd in parity))
    return pseudo_orbits, tags, groups, partner_sums, diagonal, parity


def audit_check(q, ctx, ref, seed, out):
    pseudo_orbits, tags, groups, partner_sums, diagonal, parity = out
    want = ref["audit_b32"]
    failures = []
    if len(pseudo_orbits) != want["pseudo_orbits"]:
        failures.append((f"audit: {len(pseudo_orbits)} pseudo orbits, want {want['pseudo_orbits']}", False))
    if len(groups) != want["partner_groups"]:
        failures.append((f"audit: {len(groups)} partner groups, want {want['partner_groups']}", False))
    classes = dict(Counter(tag.kind for tag in tags))
    if classes != want["classes"]:
        failures.append((f"audit: classes {classes}, want {want['classes']}", False))
    tag_of = {po.orbits: tag for po, tag in zip(pseudo_orbits, tags)}
    bad = 0
    for group, sums in zip(groups.values(), partner_sums):
        for po, value in zip(group, sums):
            repeated = any(m > 1 for _bond, m in po.bond_multiset())
            tag = tag_of[po.orbits]
            if repeated:
                ok = value == 0 and tag.kind == "excluded"
            else:
                ok = tag.kind != "excluded" and value == Fraction(2**tag.encounters, 2**po.total_bonds)
            bad += not ok
    if bad:
        failures.append((f"audit: {bad} pseudo orbits with a wrong partner sum or class", False))
    got_diagonal = [str(v) for v in diagonal]
    if got_diagonal != want["diagonal"]:
        failures.append((f"audit: diagonal {got_diagonal}, want {want['diagonal']}", False))
    for entry, (even, odd) in zip(want["lyndon"], parity):
        if even != odd or (even, odd) != (entry["even"], entry["odd"]):
            failures.append((f"audit: Lyndon census {entry['content']} gave {even}/{odd}", False))
    # operations: enumerate, classify, group, c_gamma, each diagonal n, each census
    return 4 + len(diagonal) + len(parity), failures


BODY = {"census": census_body, "mc": mc_body, "table": table_body, "audit": audit_body}
CHECK = {"census": census_check, "mc": mc_check, "table": table_check, "audit": audit_check}


# --- replays for per-layer spectral gauges ----------------------------


def evolution_replay(q, ctx, seed, tr) -> None:
    import numpy as np

    _graph, S, lengths = next(iter(ctx["graphs"].values()))
    ks = np.random.Generator(np.random.Philox(key=seed)).uniform(0.0, 1e5, EVOLUTION_REPLAY)
    for k in ks:
        with tr.span("quantize.evolution_operator"):
            q.evolution_operator(S, lengths, k)


def spectral_replay(q, S, lengths, seed, tr) -> dict:
    """Replay one single-thread MC batch: its eigvals share and RS residual."""
    import numpy as np

    ks = np.random.Generator(np.random.Philox(key=seed)).uniform(0.0, 1e5, REPLAY_SAMPLES)
    stack = np.stack([q.evolution_operator(S, lengths, k) for k in ks])
    with tr.span("spectral.eigvals"):
        np.linalg.eigvals(stack)
    with tr.span("spectral.mc_variance_batch"):
        q.mc_variance(S, lengths, None, samples=REPLAY_SAMPLES, seed=seed,
                      threads=1, batch_size=REPLAY_SAMPLES)
    residual = max(
        q.riemann_siegel_residual(q.char_poly_coefficients(U, k)) for U, k in zip(stack[:16], ks)
    )
    return {"rs_residual_max": residual}


# --- environment --------------------------------------------------------


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- modes --------------------------------------------------------------


def run_setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    q = import_qgspectra()
    import_s = time.perf_counter() - t0
    ctx = setup(q, workload, seed, NullTracer())
    setup_s = time.perf_counter() - t0
    defect = max(S.unitarity_defect() for _g, S, _l in ctx.values())
    failures = [] if defect < 1e-12 else [(f"unitarity defect {defect:.3e}", False)]
    return {"setup_s": setup_s, "import_s": import_s, "attempted": 1, "failed": len(failures),
            "failures": failures}


def run_body(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference()
    tr = Tracer()
    null = NullTracer()
    q = import_qgspectra()
    with tr.span("bench.setup"):
        ctx = {"graphs": setup(q, workload, seed, tr if trace else null)}
    defects = [S.unitarity_defect() for _g, S, _l in ctx["graphs"].values()]
    failures = [] if max(defects) < 1e-12 else [(f"unitarity defect {max(defects):.3e}", False)]
    attempted, failed = 1, len(failures)
    ctx["lyndon"] = ref["audit_b32"]["lyndon"]
    ctx["tmp"] = OUT_DIR / f"tmp-{os.getpid()}"
    if workload == "table":
        ctx["tmp"].mkdir(parents=True, exist_ok=True)
        ctx["expect"] = ctx["tmp"] / "expect.csv"
        rows = [r for r in ref["table_b24"]["rows"] if int(r[0]) <= TABLE_N_MAX]
        ctx["expect"].write_text("\n".join(",".join(r) for r in
                                           [ref["table_b24"]["header"]] + rows) + "\n")
    if trace:
        with tr.span("bench.replay"):
            evolution_replay(q, ctx, seed, tr)

    walls: list[float] = []
    traced_walls: list[float] = []
    body, check = BODY[workload], CHECK[workload]
    started = time.perf_counter()
    iteration = 0
    try:
        while True:
            unit_start = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                t0 = time.perf_counter()
                if traced:
                    with tr.span("bench.body"):
                        out = body(q, ctx, seed, iteration, tr)
                else:
                    out = body(q, ctx, seed, iteration, null)
                wall = time.perf_counter() - t0
                (traced_walls if traced else walls).append(wall)
                n_ops, found = check(q, ctx, ref, seed, out)
                attempted += n_ops
                failed += min(n_ops, len(found))  # one operation can fail several checks
                failures += found
                del out
                iteration += 1
            # at least two untraced iterations (one pair when traced), so
            # wall_s is always a median of several
            elapsed = time.perf_counter() - started
            if len(walls) >= (1 if trace else 2) and (
                elapsed + (time.perf_counter() - unit_start) > seconds
            ):
                break
        extra = per_layer(q, ctx, workload, seed, tr, walls, traced_walls) if trace else {}
    finally:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "walls": walls,
        "env": environment(),
        "census_rand": ctx.get("census_rand"),
    }
    if ctx.get("mc_var_per_sample"):
        # time to a standard error of 0.01 at n = B/2: wall_s * (stderr / 0.01)^2,
        # with the per-sample variance pooled over the iterations of this run
        stderr = math.sqrt(statistics.mean(ctx["mc_var_per_sample"]) / MC_SAMPLES)
        result["mc_stderr_mid"] = stderr
        result["mc_time_to_stderr_s"] = statistics.median(walls) * (stderr / 0.01) ** 2
    if trace:
        extra["spectral.mc_time_to_stderr_s"] = result.get("mc_time_to_stderr_s", 0.0)
        result["per_layer"] = extra
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"spans": tr.spans, "counts": dict(tr.counts)}))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


LAYERS = ("graphs", "quantize", "orbits", "classify", "lyndon", "spectral", "cli")


def per_layer(q, ctx, workload, seed, tr, walls, traced_walls) -> dict:
    """Per-layer metrics from the spans and counters of the traced iterations."""
    metrics: dict[str, float] = {}
    if workload in ("mc", "table"):
        _g, S, lengths = ctx["graphs"]["b64" if workload == "mc" else "b24"]
        with tr.span("bench.replay"):
            replay = spectral_replay(q, S, lengths, seed, tr)
    if workload == "mc":
        _g, S, lengths = ctx["graphs"]["b64"]
        t0 = time.perf_counter()
        q.mc_variance(S, lengths, None, samples=MC_SAMPLES, seed=mc_seed(seed, 0), threads=1)
        one_thread = time.perf_counter() - t0
        metrics["spectral.mc_scaling_eff"] = one_thread / (MC_THREADS * statistics.median(walls))

    summary = span_summary(tr.spans)
    iterations = len(traced_walls)

    def incl(root, name):
        return summary.get((root, name), [0.0, 0.0, 0])[0]

    def body_incl(name):
        return incl("bench.body", name) / iterations

    def body_count(name):
        return tr.counts[name] / iterations

    metrics["graphs.build_s"] = sum(v[0] for (root, name), v in summary.items()
                                    if root == "bench.setup" and name.startswith("graphs."))
    metrics["quantize.scattering_s"] = incl("bench.setup", "quantize.build_bond_scattering")
    metrics["quantize.unitarity_defect"] = max(S.unitarity_defect() for _g, S, _l in
                                               ctx["graphs"].values())
    calls = summary.get(("bench.replay", "quantize.evolution_operator"), [0.0, 0.0, 1])
    metrics["quantize.evolution_operator_us"] = calls[0] / calls[2] * 1e6

    visited = body_count("orbits.subsets_visited")
    balanced = body_count("orbits.balanced_subsets")
    metrics["orbits.subsets_visited"] = visited
    metrics["orbits.balanced_subsets"] = balanced
    metrics["orbits.balanced_ratio"] = balanced / visited if visited else 0.0
    metrics["orbits.admissible_subsets_s"] = body_incl("orbits.admissible_subsets")
    metrics["orbits.covers_s"] = body_incl("orbits.covers_of_subset")
    metrics["orbits.pseudo_orbits"] = body_count("orbits.pseudo_orbits")
    metrics["classify.class_counts_s"] = body_incl("classify.class_counts")
    metrics["classify.classify_s"] = (
        body_incl("classify.classify_pseudo_orbit") if workload != "audit" else 0.0
    )

    metrics["orbits.general_enumerate_s"] = body_incl("orbits.enumerate_pseudo_orbits")
    metrics["orbits.general_pseudo_orbits"] = body_count("orbits.general_pseudo_orbits")
    metrics["classify.general_classify_s"] = (
        body_incl("classify.classify_pseudo_orbit") if workload == "audit" else 0.0
    )
    metrics["classify.c_gamma_s"] = body_incl("classify.c_gamma")
    metrics["classify.partner_groups"] = body_count("classify.partner_groups")
    metrics["classify.diagonal_s"] = body_incl("classify.diagonal_approximation")
    metrics["lyndon.parity_census_s"] = body_incl("lyndon.tuple_parity_census")
    metrics["lyndon.tuples"] = body_count("lyndon.tuples")

    oracle_s = body_incl("spectral.minor_sum_variance")
    minors = body_count("spectral.minors_evaluated")
    metrics["spectral.oracle_s"] = oracle_s
    metrics["spectral.minors_evaluated"] = minors
    metrics["spectral.minors_per_s"] = minors / oracle_s if oracle_s else 0.0
    metrics["spectral.oracle_useful_ratio"] = (
        body_count("spectral.oracle_nonzero") / minors if minors else 0.0
    )
    mc_s = body_incl("spectral.mc_variance")
    metrics["spectral.mc_s"] = mc_s
    metrics["spectral.mc_samples_per_s"] = body_count("spectral.mc_samples") / mc_s if mc_s else 0.0
    metrics.setdefault("spectral.mc_scaling_eff", 0.0)
    if workload in ("mc", "table"):
        batch = incl("bench.replay", "spectral.mc_variance_batch")
        metrics["spectral.eigvals_share"] = incl("bench.replay", "spectral.eigvals") / batch
        metrics["spectral.rs_residual_max"] = replay["rs_residual_max"]
    else:
        metrics["spectral.eigvals_share"] = 0.0
        metrics["spectral.rs_residual_max"] = 0.0

    sidecars = ctx.get("sidecars", [])
    metrics["cli.report_table_s"] = body_incl("cli.main")
    for key in ("exact", "oracle", "mc"):
        metrics[f"cli.sidecar_{key}_s"] = (
            statistics.mean(s.get(f"{key}_s", 0.0) for s in sidecars) if sidecars else 0.0
        )
    metrics["cli.overhead_s"] = (
        statistics.mean(s.get("total_s", 0.0) - s.get("exact_s", 0.0) - s.get("oracle_s", 0.0)
                        - s.get("mc_s", 0.0) for s in sidecars) if sidecars else 0.0
    )

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v[1] for (root, name), v in summary.items()
            if root == "bench.body" and name.startswith(layer + ".")
        ) / iterations
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls) - 1
    metrics["trace.spans"] = len(tr.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["body", "setup", "oracle"])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args.workload, args.seed)
    elif args.mode == "oracle":
        result = {"oracle": census_oracle(import_qgspectra(), args.seed)}
    else:
        result = run_body(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
