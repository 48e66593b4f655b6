"""Command-line interface: graph tools, orbit dumps, and variance reports.

Exit codes: 0 success, 1 configuration or input error, 2 exact-vs-oracle
mismatch, 3 mismatch against a supplied reference table, 4 Monte Carlo
estimate outside tolerance, 5 enumeration cap exceeded (``orbits enumerate``
only, whose ``--cap`` bounds the pseudo orbits written in ``bond_distinct``
mode and the orbit walk's steps in ``general`` mode; every count and
variance is computed without enumeration).  The oracle runs at n only where
it evaluates at most ``SUBSET_LIMIT`` balanced minors, counted first.  Every
count is one frontier pass, read only through the public exact API
(``classify.census``, ``classify.variance`` and ``orbits.balanced_counts``);
past its budget, or out of memory, it exits 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .classify import (
    census,
    pseudo_orbit_counts,
    variance,
    variance_from_classes,
    write_orbit_dump,
)
from .classify import class_counts, exact_variance  # noqa: F401 (bench/worker.py patches both)
from .graphs import (
    BondLengths,
    DirectedGraph,
    build_binary_graph,
    load_graph,
    read_graph,
    save_graph,
    stored_lengths,
    validate_graph,
)
from .orbits import DEFAULT_CAP, EnumerationCapExceeded, balanced_counts, enumerate_pseudo_orbits
from .quantize import build_bond_scattering, sample_bond_lengths
from .spectral import DEFAULT_K_MAX, mc_variance, minor_sum_variance

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ORACLE_MISMATCH = 2
EXIT_TABLE_MISMATCH = 3
EXIT_MC_DIVERGED = 4
EXIT_CAP = 5

ORACLE_TOL = 1e-12
DEFAULT_MC_TOL = 5e-3
# the most balanced minors the oracle evaluates at one n
SUBSET_LIMIT = 2_000_000


def _fmt(value) -> str:
    return "n/a" if value is None else str(value)


def graph_sha256(graph: DirectedGraph) -> str:
    payload = json.dumps(
        {"V": graph.vertex_count, "bonds": [list(b) for b in graph.bonds]},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _resolve_graph(args) -> tuple[DirectedGraph, BondLengths | None]:
    """The graph, with the lengths stored in --graph-file (None if none),
    checked at load so that every command refuses bad ones."""
    if args.graph_file:
        return load_graph(args.graph_file)
    if args.p is not None and args.r is not None:
        return build_binary_graph(args.p, args.r), None
    raise ValueError("provide --graph-file, or both --p and --r")


def _resolve_graph_and_lengths(args):
    """The graph and its bond lengths: the ones stored in --graph-file,
    else drawn from --seed."""
    graph, lengths = _resolve_graph(args)
    return graph, lengths if lengths is not None else sample_bond_lengths(graph, args.seed)


def _checked_index(n: int, B: int) -> int:
    if not 0 <= n <= B:
        raise ValueError(f"coefficient index {n} outside 0..{B}")
    return n


def _index_range(args, B: int) -> list[int]:
    if args.n is not None and args.n_max is not None:
        raise ValueError("give --n or --n-max, not both")
    if args.n is not None:
        return [_checked_index(args.n, B)]
    n_max = B // 2 if args.n_max is None else args.n_max
    return list(range(_checked_index(n_max, B) + 1))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_sidecar(args, timings: dict, **extra) -> None:
    """Write ``<out>.meta.json``: version, config echo, any extra keys, timings."""
    if args.out:
        config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
        payload = {"version": __version__, "config": config, **extra, "timings": timings}
        Path(args.out + ".meta.json").write_text(json.dumps(payload, indent=1) + "\n")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- graph ------------------------------------------------------------


def cmd_graph_gen(args) -> int:
    graph = build_binary_graph(args.p, args.r)
    lengths = None
    if args.seed is not None:
        lengths = sample_bond_lengths(graph, args.seed)
    save_graph(graph, args.out, lengths=lengths)
    print(
        f"wrote {args.out}: V={graph.vertex_count} B={graph.num_bonds}"
        + (f" lengths(seed={args.seed})" if lengths is not None else "")
    )
    return EXIT_OK


def cmd_graph_validate(args) -> int:
    graph, stored = read_graph(args.graph_file)
    report = validate_graph(graph)
    problems = list(report.problems)
    if list(graph.bonds) != sorted(graph.bonds):
        problems.append("bond list is not in canonical (origin, terminus) order")
    try:
        stored_lengths(graph, stored)
    except ValueError as exc:
        problems.append(str(exc))
    payload = {
        "four_regular": report.four_regular,
        "strongly_connected": report.strongly_connected,
        "bond_count_ok": report.bond_count_ok,
        "passed": not problems,
        "problems": problems,
    }
    _emit(json.dumps(payload, indent=1) + "\n", args.out)
    return EXIT_OK if not problems else EXIT_CONFIG


# --- orbits -----------------------------------------------------------


def cmd_orbits_enumerate(args) -> int:
    graph, _ = _resolve_graph(args)
    pos = enumerate_pseudo_orbits(graph, args.n, mode=args.mode, cap=args.cap)
    buf = io.StringIO()
    write_orbit_dump(graph, pos, buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_orbits_classify(args) -> int:
    graph, _ = _resolve_graph(args)
    [counts] = census(graph, [args.n], args.mode)
    exact = variance_from_classes(counts)
    payload = {
        "n": counts.n,
        "mode": args.mode,
        "p0": counts.p0,
        "phat": {str(N): c for N, c in counts.phat.items()},
        "excluded": counts.excluded,
        "variance_fraction": str(exact),
        "variance": float(exact),
    }
    # a general-mode count can pass the interpreter's int-to-str digit limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, indent=1) + "\n"
    finally:
        sys.set_int_max_str_digits(digit_limit)
    _emit(text, args.out)
    return EXIT_OK


# --- variance ---------------------------------------------------------


def cmd_variance_exact(args) -> int:
    graph, _ = _resolve_graph(args)
    ns = _index_range(args, graph.num_bonds)
    rows = [[_fmt(n), _fmt(v), _fmt(float(v))] for n, v in zip(ns, variance(graph, ns))]
    _emit(_csv_text(["n", "exact_fraction", "exact"], rows), args.out)
    return EXIT_OK


def cmd_variance_oracle(args) -> int:
    graph, _ = _resolve_graph(args)
    ns = _index_range(args, graph.num_bonds)
    for n, count in zip(ns, balanced_counts(graph, ns, 0)):
        if count > SUBSET_LIMIT:
            raise ValueError(f"the oracle at n={n} would evaluate {count} balanced minors, "
                             f"above the limit of {SUBSET_LIMIT}")
    S = build_bond_scattering(graph)
    rows = [[_fmt(n), _fmt(minor_sum_variance(S, n))] for n in ns]
    _emit(_csv_text(["n", "oracle"], rows), args.out)
    return EXIT_OK


def _cross_check(args, graph: DirectedGraph, lengths, with_census: bool = False):
    """Every route at each requested n, timed route by route.

    Returns ``(rows, timings)`` with one ``(n, census, exact, oracle,
    estimate)`` row per n.  A census, if asked for, also gives the exact
    and minor counts; its column reads None above B/2.  The oracle is None
    past ``SUBSET_LIMIT`` balanced minors.
    """
    B = graph.num_bonds
    ns = _index_range(args, B)
    S = build_bond_scattering(graph)

    t0 = time.perf_counter()
    if with_census:
        counts = census(graph, ns)
        exact = [variance_from_classes(c) for c in counts]
        minors = [c.p0 + sum(k >> N for N, k in c.phat.items()) for c in counts]
    else:
        counts = [None] * len(ns)
        exact = variance(graph, ns)
        minors = balanced_counts(graph, ns, 0)
    t1 = time.perf_counter()
    oracle = [
        minor_sum_variance(S, n) if count <= SUBSET_LIMIT else None
        for n, count in zip(ns, minors)
    ]
    t2 = time.perf_counter()
    estimates = mc_variance(
        S, lengths, ns, args.samples, args.seed, args.kmax, threads=args.threads
    )
    t3 = time.perf_counter()
    census_column = [c if n <= B // 2 else None for n, c in zip(ns, counts)]
    rows = list(zip(ns, census_column, exact, oracle, estimates))
    return rows, {"exact_s": t1 - t0, "oracle_s": t2 - t1, "mc_s": t3 - t2}


def cmd_variance_mc(args) -> int:
    rows, _ = _cross_check(args, *_resolve_graph_and_lengths(args))
    header = ["n", "exact", "oracle", "mc_mean", "mc_stderr", "samples", "seed"]
    table = [
        [_fmt(v) for v in (n, float(exact), oracle, est.mean, est.std_error,
                           est.samples, est.seed)]
        for n, _, exact, oracle, est in rows
    ]
    _emit(_csv_text(header, table), args.out)
    return EXIT_OK


def cmd_variance_diagonal(args) -> int:
    graph, _ = _resolve_graph(args)
    ns = _index_range(args, graph.num_bonds)
    counts = pseudo_orbit_counts(graph, ns[-1])
    values = [Fraction(counts[n], 2**n) for n in ns]
    rows = [[_fmt(n), _fmt(counts[n]), _fmt(v), _fmt(float(v))] for n, v in zip(ns, values)]
    header = ["n", "pseudo_orbits", "diagonal_fraction", "diagonal"]
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


# --- reports ----------------------------------------------------------


def _reference_mismatches(path: str, header: list[str], rows: list[list[str]]) -> list[str]:
    """Compare discrete columns (p0, phatN, exact_fraction) against a
    reference CSV keyed by n; returns human-readable mismatch notes.  A
    phatN column the table lacks reads 0, or n/a above B/2."""
    ours = {row[header.index("n")]: dict(zip(header, row)) for row in rows}
    mismatches = []
    with open(path, newline="") as handle:
        for expected in csv.DictReader(handle):
            n = expected.get("n")
            if None in expected:
                raise ValueError(f"reference row n={n} has more fields than its header")
            if n is None or n not in ours:
                mismatches.append(f"reference row n={n} has no computed counterpart")
                continue
            absent = "n/a" if ours[n]["p0"] == "n/a" else "0"
            for column, wanted in expected.items():
                if wanted and (column in ("p0", "exact_fraction")
                               or re.fullmatch(r"phat[1-9][0-9]*", column)):
                    got, wanted = ours[n].get(column, absent), wanted.strip()
                    if got != wanted:
                        mismatches.append(f"n={n} {column}: computed {got}, reference {wanted}")
    return mismatches


def cmd_report_table(args) -> int:
    t_start = time.perf_counter()
    if not 0 <= args.mc_tol < math.inf:
        raise ValueError(f"--mc-tol must be finite and non-negative, got {args.mc_tol}")
    graph, lengths = _resolve_graph_and_lengths(args)
    rows, timings = _cross_check(args, graph, lengths, with_census=True)

    max_encounters = max(
        (max(counts.phat, default=0) for _, counts, *_ in rows if counts), default=0
    )
    header = (
        ["n", "p0"]
        + [f"phat{N}" for N in range(1, max_encounters + 1)]
        + ["exact_fraction", "exact", "oracle", "mc_mean", "mc_stderr", "abs_error"]
    )
    table = []
    for n, counts, exact, oracle, est in rows:
        row = [_fmt(n), _fmt(counts.p0 if counts else None)]
        for N in range(1, max_encounters + 1):
            row.append(_fmt(counts.phat.get(N, 0) if counts else None))
        row += [
            _fmt(v)
            for v in (exact, float(exact), oracle, est.mean, est.std_error,
                      abs(est.mean - float(exact)))
        ]
        table.append(row)

    if any(o is not None and abs(float(e) - o) > ORACLE_TOL for _, _, e, o, _ in rows):
        exit_code = EXIT_ORACLE_MISMATCH
    elif args.expect and (notes := _reference_mismatches(args.expect, header, table)):
        print("\n".join(f"mismatch: {note}" for note in notes), file=sys.stderr)
        exit_code = EXIT_TABLE_MISMATCH
    elif any(
        abs(est.mean - float(e)) > max(args.mc_tol, 3 * est.std_error)
        for _, _, e, _, est in rows
    ):
        exit_code = EXIT_MC_DIVERGED
    else:
        exit_code = EXIT_OK

    timings["total_s"] = time.perf_counter() - t_start
    _emit(_csv_text(header, table), args.out)
    _write_sidecar(args, timings, graph_sha256=graph_sha256(graph))
    return exit_code


def cmd_report_convergence(args) -> int:
    t_start = time.perf_counter()
    r_values = [int(x) for x in str(args.r).split(",") if x != ""]
    if not r_values or any(r < 1 for r in r_values):
        raise ValueError("--r needs a comma-separated list of positive integers")
    rows = []
    for r in r_values:
        graph = build_binary_graph(1, r)
        B = graph.num_bonds
        n = _checked_index(B // 2 if args.n is None else args.n, B)
        S = build_bond_scattering(graph)
        lengths = sample_bond_lengths(graph, args.seed)
        est = mc_variance(
            S, lengths, [n], args.samples, args.seed, args.kmax, threads=args.threads
        )[0]
        rows.append(
            [_fmt(v) for v in (r, B, n, est.mean, est.std_error, abs(est.mean - 0.5))]
        )
    header = ["r", "B", "n", "mc_mean", "mc_stderr", "abs_dev_from_half"]
    _emit(_csv_text(header, rows), args.out)
    _write_sidecar(args, {"total_s": time.perf_counter() - t_start})
    return EXIT_OK


# --- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgspectra",
        description="Coefficient-variance statistics of 4-regular directed quantum graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_src = argparse.ArgumentParser(add_help=False)
    graph_src.add_argument("--p", type=int, help="binary-graph parameter p (odd)")
    graph_src.add_argument("--r", type=int, help="binary-graph parameter r (>= 1)")
    graph_src.add_argument("--graph-file", help="graph JSON file instead of --p/--r")

    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", help="output path (default: stdout)")

    index_opts = argparse.ArgumentParser(add_help=False)
    index_opts.add_argument("--n", type=int, help="single coefficient index")
    index_opts.add_argument("--n-max", type=int, help="indices 0..n-max (default B/2)")

    mc_opts = argparse.ArgumentParser(add_help=False)
    mc_opts.add_argument("--samples", type=int, default=100_000)
    mc_opts.add_argument("--seed", type=int, default=0)
    mc_opts.add_argument("--kmax", type=float, default=DEFAULT_K_MAX)
    mc_opts.add_argument("--threads", type=int, default=1)

    mode_opts = argparse.ArgumentParser(add_help=False)
    mode_opts.add_argument(
        "--mode", choices=["bond_distinct", "general"], default="bond_distinct"
    )

    graph_cmd = sub.add_parser("graph", help="generate and validate graphs")
    gsub = graph_cmd.add_subparsers(dest="action", required=True)
    gen = gsub.add_parser("gen", help="write a binary graph (with optional lengths)")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None, help="embed lengths drawn with this seed")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_graph_gen)
    val = gsub.add_parser("validate", parents=[out_opt], help="validate a graph file")
    val.add_argument("--graph-file", required=True)
    val.set_defaults(func=cmd_graph_validate)

    orbits_cmd = sub.add_parser("orbits", help="enumerate and classify pseudo orbits")
    osub = orbits_cmd.add_subparsers(dest="action", required=True)
    oenum = osub.add_parser(
        "enumerate", parents=[graph_src, out_opt, mode_opts], help="JSONL pseudo-orbit dump"
    )
    oenum.add_argument("--n", type=int, required=True)
    oenum.add_argument("--cap", type=int, default=DEFAULT_CAP)
    oenum.set_defaults(func=cmd_orbits_enumerate)
    oclass = osub.add_parser(
        "classify", parents=[graph_src, out_opt, mode_opts], help="class census at one n"
    )
    oclass.add_argument("--n", type=int, required=True)
    oclass.set_defaults(func=cmd_orbits_classify)

    variance_cmd = sub.add_parser("variance", help="variance by a single route")
    vsub = variance_cmd.add_subparsers(dest="action", required=True)
    vexact = vsub.add_parser("exact", parents=[graph_src, out_opt, index_opts])
    vexact.set_defaults(func=cmd_variance_exact)
    voracle = vsub.add_parser("oracle", parents=[graph_src, out_opt, index_opts])
    voracle.set_defaults(func=cmd_variance_oracle)
    vmc = vsub.add_parser("mc", parents=[graph_src, out_opt, index_opts, mc_opts])
    vmc.set_defaults(func=cmd_variance_mc)
    vdiag = vsub.add_parser("diagonal", parents=[graph_src, out_opt, index_opts])
    vdiag.set_defaults(func=cmd_variance_diagonal)

    report_cmd = sub.add_parser("report", help="cross-validated reports")
    rsub = report_cmd.add_subparsers(dest="action", required=True)
    table = rsub.add_parser(
        "table", parents=[graph_src, out_opt, index_opts, mc_opts],
        help="per-n table: class counts, exact, oracle, MC",
    )
    table.add_argument("--expect", help="reference CSV to compare discrete columns against")
    table.add_argument("--mc-tol", type=float, default=DEFAULT_MC_TOL)
    table.set_defaults(func=cmd_report_table)
    conv = rsub.add_parser(
        "convergence", parents=[out_opt, mc_opts],
        help="MC variance at n = B/2 across graph sizes",
    )
    conv.add_argument("--r", default="2,3,4,5", help="comma-separated r values")
    conv.add_argument("--n", type=int, help="coefficient index (default B/2 per graph)")
    conv.set_defaults(func=cmd_report_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
