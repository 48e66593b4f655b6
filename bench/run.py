"""The qgspectra benchmark: one workload, measured from outside the program.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, mc, table, audit (see bench/README.md for why each was
chosen and which layer metric should move which end-to-end metric).

The workload runs in a child process (bench/worker.py) under a wall-clock
timeout, with BLAS and OpenMP pinned to one thread.  With ``--trace 0`` the
result carries the end-to-end metrics: ``wall_s`` (median wall time of the
timed body), ``setup_s`` (median of several set-up probes, each a fresh
process that imports qgspectra and builds the graphs, scattering matrices
and bond lengths) and ``peak_rss_mb`` (peak resident memory of the workload
process).  With ``--trace 1`` it carries the per-layer metrics of a traced
run instead.  Every output is checked; failed checks, exceptions and
timeouts count as failed operations.

Each run is appended to .bench_out/results.jsonl with the machine
description, and the human-readable lines summarize ``wall_s`` over the runs
recorded there.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (the helpers import nothing heavy)

SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, children included, ends within this
BODY_TIMEOUT_S = 130.0
PROBE_TIMEOUT_S = 15.0


def child_env() -> dict:
    env = dict(os.environ)
    # threads=2 in the workloads must not oversubscribe the cores with BLAS threads
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run worker.py with ``args``; return (its JSON result, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=worker.ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s: {' '.join(args)}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"exit {proc.returncode}: {' '.join(args)}\n{tail}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError as exc:
        return None, f"unreadable result ({exc}): {' '.join(args)}"


def upper_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it: (percent, value)."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 10
    return 100.0 * k / len(ordered), ordered[k - 1]


def history_summary(history: Path, workload: str) -> str:
    walls = []
    if history.exists():
        for line in history.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("workload") == workload and "wall_s" in record.get("metrics", {}):
                walls.append(record["metrics"]["wall_s"])
    if not walls:
        return "no recorded runs"
    text = f"median {statistics.median(walls):.4f} s over {len(walls)} runs"
    high = upper_percentile(walls)
    if high is None:
        return text + "; an upper percentile needs at least 11 runs"
    return text + f"; p{high[0]:.1f} = {high[1]:.4f} s with 10 runs above it"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qgspectra benchmark (one workload)")
    parser.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    if not (worker.SRC / "qgspectra" / "__init__.py").is_file():
        print(f"error: no qgspectra sources under {worker.SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    failures: list[tuple[str, bool]] = []
    attempted = failed = 0

    t0 = time.monotonic()
    body, error = run_child(["body", *common, "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], min(BODY_TIMEOUT_S, remaining() - 30))
    body_elapsed = time.monotonic() - t0
    # only the workload child has been waited for so far, so this is its peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if body is None:
        attempted += 1
        failed += 1
        failures.append((error, False))
        walls = [body_elapsed]
    else:
        attempted += body["attempted"]
        failed += body["failed"]
        failures += [tuple(f) for f in body["failures"]]
        walls = body["walls"]

    if args.workload == "census" and body is not None:
        oracle, error = run_child(["oracle", *common], min(60.0, remaining() - 20))
        found = ([(error, False)] if oracle is None else
                 worker.census_oracle_failures(body["census_rand"], oracle["oracle"]))
        attempted += 1
        failed += min(1, len(found))
        failures += found

    metrics: dict[str, dict] = {}
    if args.trace:
        layer = body.get("per_layer", {}) if body else {}
        for name, unit in declared_per_layer().items():
            # a failed run reports 0 for what it could not measure
            metrics[name] = {"value": layer.get(name, 0.0), "unit": unit}
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, error = run_child(["setup", *common], min(PROBE_TIMEOUT_S, remaining()))
            attempted += 1
            if probe is None:
                failed += 1
                failures.append((error, False))
            else:
                failed += probe["failed"]
                failures += [tuple(f) for f in probe["failures"]]
                setups.append(probe["setup_s"])
        metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups) if setups else body_elapsed,
                              "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    correct = all(mc_gate for _msg, mc_gate in failures)
    report(args, body, walls, metrics, attempted, failed, failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def declared_per_layer() -> dict[str, str]:
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def report(args, body, walls, metrics, attempted, failed, failures) -> None:
    """Human-readable lines, and one record appended to .bench_out/results.jsonl."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  timed iterations: {len(walls)}  walls (s): "
          + " ".join(f"{w:.4f}" for w in walls))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for message, mc_gate in failures:
        print(f"  FAILED{' (MC gate)' if mc_gate else ''}: {message}")
    if body and "mc_time_to_stderr_s" in body:
        print(f"  mc_time_to_stderr_s {body['mc_time_to_stderr_s']:.6g} s"
              f" (stderr at n=B/2 pooled over the iterations: {body['mc_stderr_mid']:.5f})")
    if body and "trace_file" in body:
        print(f"  spans written to {body['trace_file']}")
    env = body["env"] if body else {}
    print(f"  env: {json.dumps(env)}")
    worker.OUT_DIR.mkdir(exist_ok=True)
    history = worker.OUT_DIR / "results.jsonl"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": {k: v["value"] for k, v in metrics.items()},
              "walls": walls, "attempted": attempted, "failed": failed, "env": env}
    with open(history, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(f"  wall_s across runs in this checkout: {history_summary(history, args.workload)}")


if __name__ == "__main__":
    sys.exit(main())
