"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import csv
import decimal
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import qgspectra as q
from qgspectra.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_MC_DIVERGED,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_TABLE_MISMATCH,
    main,
)
from qgspectra.graphs import DirectedGraph, save_graph
from qgspectra.spectral import minor_sum_variance

V6_FRACTIONS = ["1", "1", "3/4", "3/4", "7/8", "1/2", "3/8"]


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_graph_gen_and_validate_roundtrip(tmp_path):
    graph_file = str(tmp_path / "g8.json")
    assert main(["graph", "gen", "--p", "1", "--r", "3", "--seed", "101",
                 "--out", graph_file]) == EXIT_OK
    data = json.loads((tmp_path / "g8.json").read_text())
    assert data["V"] == 8
    assert len(data["bonds"]) == 16
    assert len(data["lengths"]) == 16

    report_file = str(tmp_path / "report.json")
    assert main(["graph", "validate", "--graph-file", graph_file,
                 "--out", report_file]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["problems"] == []


def test_graph_gen_without_seed(tmp_path):
    out = tmp_path / "g6.json"
    assert main(["graph", "gen", "--p", "3", "--r", "1", "--out", str(out)]) == EXIT_OK
    assert "lengths" not in json.loads(out.read_text())


def test_graph_gen_file_is_pinned(tmp_path):
    # the bytes of a generated file with lengths: the JSON layout and the
    # repr of each sampled float, which the length check must not change
    out = tmp_path / "g6.json"
    assert main(["graph", "gen", "--p", "3", "--r", "1", "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b903a7cae16bbd998fdd9540b073f1b5cb740bcd3a978a4a02415d52d58b3e85")


def test_validate_lists_noncanonical_order(tmp_path, capsys, binary6):
    path = tmp_path / "swapped.json"
    save_graph(binary6, path)
    data = json.loads(path.read_text())
    data["bonds"][0], data["bonds"][1] = data["bonds"][1], data["bonds"][0]
    path.write_text(json.dumps(data))
    assert main(["graph", "validate", "--graph-file", str(path)]) == EXIT_CONFIG
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["problems"] == ["bond list is not in canonical (origin, terminus) order"]


def test_validate_fails_on_disconnected(tmp_path):
    g = DirectedGraph(2, ((0, 0), (0, 0), (1, 1), (1, 1)))
    path = tmp_path / "loops.json"
    save_graph(g, path)
    out = tmp_path / "report.json"
    assert main(["graph", "validate", "--graph-file", str(path),
                 "--out", str(out)]) == EXIT_CONFIG
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert any("strongly connected" in p for p in report["problems"])


@pytest.mark.parametrize("command, text", [
    (["graph", "validate"], '{"V": 1, "bonds": [[0.7, 0], [0, 0.2]]}'),
    (["variance", "exact"], '{"V": 1e400, "bonds": []}'),
])
def test_graph_file_with_non_integer_vertex_exits_config(tmp_path, capsys, command, text):
    path = tmp_path / "floats.json"
    path.write_text(text)
    assert main([*command, "--graph-file", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "malformed graph file" in captured.err
    assert captured.out == ""


def test_orbits_enumerate_general_dump(tmp_path):
    out = tmp_path / "orbits.jsonl"
    assert main(["orbits", "enumerate", "--p", "3", "--r", "1", "--n", "5",
                 "--mode", "general", "--out", str(out)]) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 20
    assert sum(1 for rec in records if rec["class"] == "excluded") == 8
    assert all(rec["n"] == 5 for rec in records)


def test_orbits_enumerate_bond_distinct(tmp_path, binary6):
    graph_file = tmp_path / "g6.json"
    save_graph(binary6, graph_file)
    out = tmp_path / "orbits.jsonl"
    assert main(["orbits", "enumerate", "--graph-file", str(graph_file),
                 "--n", "4", "--out", str(out)]) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 10
    classes = [rec["class"] for rec in records]
    assert classes.count("P0") == 6
    assert classes.count("P^N") == 4


def test_orbits_classify_payload(capsys):
    assert main(["orbits", "classify", "--p", "3", "--r", "1", "--n", "4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["p0"] == 6
    assert payload["phat"] == {"1": 4}
    assert payload["excluded"] == 0
    assert payload["variance_fraction"] == "7/8"
    assert payload["variance"] == 0.875


def test_variance_exact_csv(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["variance", "exact", "--p", "3", "--r", "1", "--n-max", "6",
                 "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert [row["exact_fraction"] for row in rows] == V6_FRACTIONS


def test_variance_exact_default_range_is_half(tmp_path):
    out = tmp_path / "exact8.csv"
    assert main(["variance", "exact", "--p", "1", "--r", "3",
                 "--out", str(out)]) == EXIT_OK
    assert [row["n"] for row in _read_csv(out)] == [str(n) for n in range(9)]


def test_variance_exact_midpoint_b64(capsys):
    assert main(["variance", "exact", "--p", "1", "--r", "5", "--n", "32"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "36993/65536"


def test_census_graph_above_two_in_two_out_exits_config(tmp_path, capsys):
    path = tmp_path / "dense.json"
    save_graph(DirectedGraph(2, ((0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (1, 1))), path)
    assert main(["orbits", "classify", "--graph-file", str(path), "--n", "2"]) == EXIT_CONFIG
    assert "vertex 0 has 4 incoming / 4 outgoing" in capsys.readouterr().err


def test_variance_oracle_csv(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert main(["variance", "oracle", "--p", "3", "--r", "1", "--n", "4",
                 "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["oracle"]) == pytest.approx(0.875, abs=1e-12)
    # every row within the minor limit is the library's oracle value
    assert main(["variance", "oracle", "--p", "3", "--r", "1", "--n-max", "4"]) == EXIT_OK
    S = q.build_bond_scattering(q.build_binary_graph(3, 1))
    rows = "".join(f"{n},{minor_sum_variance(S, n)}\n" for n in range(5))
    assert capsys.readouterr().out == "n,oracle\n" + rows


def test_variance_oracle_beyond_the_limit_exits_config(capped_cli):
    # B=128 has 2 722 650 balanced 25-bond subsets, the first count above the
    # limit; one counting pass refuses them before any minor is evaluated
    proc = capped_cli("variance", "oracle", "--p", "1", "--r", "6")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert "n=25" in proc.stderr and "2000000" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["variance", "oracle", "--p", "1", "--r", "7"], EXIT_CONFIG),
    (["orbits", "enumerate", "--p", "1", "--r", "7", "--n", "128"], EXIT_CAP),
    (["variance", "exact", "--p", "1", "--r", "7", "--n", "128"], EXIT_CONFIG),
    (["variance", "mc", "--p", "1", "--r", "7", "--n", "128", "--samples", "2"], EXIT_CONFIG),
    (["orbits", "classify", "--p", "1", "--r", "7", "--n", "128"], EXIT_CONFIG),
    (["report", "table", "--p", "1", "--r", "7", "--n", "128", "--samples", "2"], EXIT_CONFIG),
])
def test_gate_count_beyond_the_state_budget_refuses(argv, code, capped_cli):
    # at B=256 every pass up to n=128 outgrows the frontier budget within
    # about two seconds and refuses there instead of finishing the DP.  A
    # census state carries 65 digits of 257 bits, so the bit budget allows
    # 2**34 // (257 * 65 * 129) = 7972 of them
    proc = capped_cli(*argv)
    assert proc.returncode == code
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    limit = 7972 if argv[1] in ("classify", "table") else 100000
    assert "n=128" in proc.stderr and f"{limit} frontier states" in proc.stderr


def test_counts_above_half_cost_their_mirror(capped_cli):
    # B=256: n = 250 runs the pass to 6, with variance var(6) = 1/2, and
    # n = 239 refuses at its mirror 17 as n = 17 does
    proc = capped_cli("orbits", "classify", "--p", "1", "--r", "7", "--n", "250")
    assert proc.returncode == EXIT_OK
    payload = json.loads(proc.stdout)
    assert (payload["p0"], payload["variance_fraction"]) == (0, "1/2")
    proc = capped_cli("variance", "exact", "--p", "1", "--r", "7", "--n", "6")
    assert proc.stdout.splitlines()[1].split(",")[1] == "1/2"
    proc = capped_cli("orbits", "enumerate", "--p", "1", "--r", "7", "--n", "239")
    assert proc.returncode == EXIT_CAP
    assert proc.stdout == "" and "n=17 needs more than" in proc.stderr


@pytest.mark.parametrize("argv, message", [
    # B=1024: the walk counts up to n=512 would take 87 s
    (["variance", "diagonal", "--p", "1", "--r", "9"], "n=512 would move about 1.51e+12 bits"),
    (["orbits", "classify", "--mode", "general", "--p", "1", "--r", "2", "--n", "70000"],
     "n=70000 would hold about 2.45e+09 bits"),
])
def test_pseudo_orbit_count_beyond_its_budget_refuses(argv, message, capped_cli):
    proc = capped_cli(*argv)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert message in proc.stderr and "above the limit of" in proc.stderr


def test_general_count_past_the_digit_limit_prints_in_full(capsys):
    # |P^14400| on B=8 has more decimal digits than str(int) converts by default
    digit_limit = sys.get_int_max_str_digits()
    assert main(["orbits", "classify", "--mode", "general", "--p", "1", "--r", "2",
                 "--n", "14400"]) == EXIT_OK
    assert sys.get_int_max_str_digits() == digit_limit
    printed = re.search(r'"excluded": (\d+),', capsys.readouterr().out).group(1)
    count = q.pseudo_orbit_counts(q.build_binary_graph(1, 2), 14400)[14400]
    assert len(printed) > digit_limit
    assert printed == str(decimal.Decimal(count))  # a conversion without the limit


@pytest.mark.parametrize("argv", [
    ["variance", "exact", "--p", "1", "--r", "30"],
    ["report", "convergence", "--r", "28", "--samples", "2"],
    ["graph", "gen", "--p", "1000000001", "--r", "1", "--out", "g.json"],
    ["variance", "diagonal", "--p", "1", "--r", "24"],
    ["variance", "mc", "--p", "1", "--r", "14", "--n", "2", "--samples", "2"],
])
def test_out_of_memory_exits_config(argv, capped_cli, tmp_path, monkeypatch):
    # a graph or matrix too large for the 1 GB cap ends in one line
    monkeypatch.chdir(tmp_path)
    proc = capped_cli(*argv)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


def test_variance_mc_row_fields(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["variance", "mc", "--p", "3", "--r", "1", "--n", "0",
                 "--samples", "50", "--seed", "3", "--out", str(out)]) == EXIT_OK
    row = _read_csv(out)[0]
    assert float(row["mc_mean"]) == 1.0
    assert row["exact"] == "1.0"
    assert row["samples"] == "50"
    assert row["seed"] == "3"


def test_exact_column_beyond_oracle_limit(tmp_path):
    # 2 722 650 balanced minors at B=128, n=25 are past the oracle's limit;
    # exact and census stay
    out = tmp_path / "mc.csv"
    assert main(["variance", "mc", "--p", "1", "--r", "6", "--n", "25",
                 "--samples", "20", "--out", str(out)]) == EXIT_OK
    row = _read_csv(out)[0]
    assert (row["exact"], row["oracle"]) == ("0.5180683135986328", "n/a")

    out = tmp_path / "table.csv"
    assert main(["report", "table", "--p", "1", "--r", "6", "--n", "25",
                 "--samples", "20", "--mc-tol", "1", "--out", str(out)]) == EXIT_OK
    row = _read_csv(out)[0]
    assert (row["p0"], row["exact_fraction"], row["oracle"]) == ("1274240", "271617/524288", "n/a")
    assert sum(int(row[f"phat{N}"]) for N in range(1, 7)) == 4130288


def test_report_table_fills_every_oracle_cell_at_b32(tmp_path):
    # at most 814 balanced minors per n at B=32, so the oracle reaches every
    # row; exit 0 means each agrees with the exact value within ORACLE_TOL
    out = tmp_path / "table.csv"
    assert main(["report", "table", "--p", "1", "--r", "4", "--samples", "2000",
                 "--mc-tol", "1", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert [row["n"] for row in rows] == [str(n) for n in range(17)]
    oracle = [float(row["oracle"]) for row in rows]
    assert abs(oracle[16] - 145 / 256) < 1e-12


def test_orbits_enumerate_b32_midpoint(tmp_path):
    # 3904 pseudo orbits, far below the default cap although C(32, 16) ~ 6e8
    out = tmp_path / "orbits.jsonl"
    assert main(["orbits", "enumerate", "--p", "1", "--r", "4", "--n", "16",
                 "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 3904


def test_variance_mc_parses_graph_file_once(tmp_path, monkeypatch, binary6):
    stored = q.sample_bond_lengths(binary6, 5)
    path = tmp_path / "g.json"
    save_graph(binary6, path, lengths=stored)
    calls = []
    parse = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or parse(*a, **k))
    out = tmp_path / "mc.csv"
    assert main(["variance", "mc", "--graph-file", str(path), "--n", "2",
                 "--samples", "64", "--seed", "9", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1
    (row,) = _read_csv(out)
    (est,) = q.mc_variance(q.build_bond_scattering(binary6), stored, [2], samples=64, seed=9)
    assert float(row["mc_mean"]) == est.mean  # the stored lengths, not --seed's


_GOOD_LENGTHS = [1 + b / 16 for b in range(12)]


@pytest.mark.parametrize("stored", [
    ({"a": 1}, "lengths must be a vector of numbers"),
    ([[1.0, 1.1], [1.2]], "lengths must be a vector of numbers"),
    ([str(x) for x in _GOOD_LENGTHS], "lengths must be a vector of numbers"),
    ([math.nan, *_GOOD_LENGTHS[1:]], "lengths must be finite"),
    ([-1.5, *_GOOD_LENGTHS[1:]], "lengths must be strictly positive"),
    ([1.5, 1.5, *_GOOD_LENGTHS[2:]], "lengths must be pairwise distinct"),
    (_GOOD_LENGTHS[1:], "stored lengths do not match the bond count"),
    ([*_GOOD_LENGTHS[:-1], True], "lengths must be a vector of numbers, got bool entries"),
])
def test_malformed_stored_lengths_exit_config(tmp_path, capsys, binary6, stored):
    # every command that reads a graph file refuses bad stored lengths at
    # load, whether or not it uses them
    lengths, message = stored
    path = tmp_path / "g.json"
    save_graph(binary6, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "lengths": lengths}))
    out = str(tmp_path / "out.csv")
    for command in (["variance", "mc", "--n", "2", "--samples", "10"],
                    ["report", "table", "--n", "2", "--samples", "10"],
                    ["variance", "exact", "--n", "2"],
                    ["variance", "oracle", "--n", "2"],
                    ["variance", "diagonal", "--n", "2"],
                    ["orbits", "classify", "--n", "2"],
                    ["orbits", "enumerate", "--n", "2"]):
        assert main([*command, "--graph-file", str(path), "--out", out]) == EXIT_CONFIG
        assert message in capsys.readouterr().err, command
    assert main(["graph", "validate", "--graph-file", str(path), "--out", out]) == EXIT_CONFIG
    assert message in " ".join(json.loads(Path(out).read_text())["problems"])


@pytest.mark.parametrize("n", [4, 10])
def test_variance_mc_and_report_table_share_one_computation(tmp_path, n):
    common = ["--p", "3", "--r", "1", "--n", str(n), "--samples", "500", "--seed", "7"]
    assert main(["variance", "mc", *common, "--out", str(tmp_path / "mc.csv")]) == EXIT_OK
    assert main(["report", "table", *common, "--mc-tol", "1",
                 "--out", str(tmp_path / "table.csv")]) == EXIT_OK
    (mc,) = _read_csv(tmp_path / "mc.csv")
    (table,) = _read_csv(tmp_path / "table.csv")
    for column in ("exact", "oracle", "mc_mean", "mc_stderr"):
        assert mc[column] == table[column]
    if n == 10:  # above B/2: the exact value is mirrored and no census is shown
        assert (table["p0"], table["exact_fraction"]) == ("n/a", "3/4")


def test_variance_diagonal_csv(tmp_path):
    out = tmp_path / "diag.csv"
    assert main(["variance", "diagonal", "--p", "3", "--r", "1", "--n", "2",
                 "--out", str(out)]) == EXIT_OK
    row = _read_csv(out)[0]
    assert row["pseudo_orbits"] == "3"
    assert row["diagonal_fraction"] == "3/4"


def test_counts_beyond_enumeration(tmp_path, capsys):
    # de Bruijn graphs carry 2^(n-1) pseudo orbits of length n >= 2: the
    # primitive orbits are Lyndon words, and prod_l (1 + x^l)^pi_l equals
    # (1 - 2x^2) / (1 - 2x); far too many to enumerate at B=64 and B=256
    out = tmp_path / "diag.csv"
    assert main(["variance", "diagonal", "--p", "1", "--r", "7", "--n", "128",
                 "--out", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["diagonal_fraction"] == "1/2"
    assert main(["orbits", "classify", "--mode", "general", "--p", "1", "--r", "5",
                 "--n", "32"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["variance_fraction"] == "36993/65536"
    assert payload["p0"] + sum(payload["phat"].values()) + payload["excluded"] == 2**31


def test_report_table_end_to_end(tmp_path):
    out = tmp_path / "table.csv"
    args = ["report", "table", "--p", "3", "--r", "1",
            "--samples", "2000", "--seed", "7", "--out", str(out)]
    assert main(args) == EXIT_OK

    rows = _read_csv(out)
    assert [row["exact_fraction"] for row in rows] == V6_FRACTIONS
    assert [row["p0"] for row in rows] == ["1", "2", "3", "6", "6", "8", "8"]
    assert [row["phat1"] for row in rows] == ["0", "0", "0", "0", "4", "4", "8"]
    for row in rows:
        assert abs(float(row["oracle"]) - float(row["exact"])) < 1e-12
        assert float(row["abs_error"]) < 0.1

    sidecar = json.loads((tmp_path / "table.csv.meta.json").read_text())
    assert set(sidecar) == {"version", "config", "graph_sha256", "timings"}
    assert set(sidecar["timings"]) == {"exact_s", "oracle_s", "mc_s", "total_s"}
    assert sidecar["config"]["samples"] == 2000
    assert len(sidecar["graph_sha256"]) == 64

    # bit-identical data on a repeated run
    out2 = tmp_path / "table2.csv"
    assert main(args[:-1] + [str(out2)]) == EXIT_OK
    assert out.read_bytes() == out2.read_bytes()
    sidecar2 = json.loads((tmp_path / "table2.csv.meta.json").read_text())
    for key in ("version", "graph_sha256"):
        assert sidecar[key] == sidecar2[key]


def _write_reference(path, p0_at_4):
    rows = [
        ("0", "1", "0", "1"), ("1", "2", "0", "1"), ("2", "3", "0", "3/4"),
        ("3", "6", "0", "3/4"), ("4", p0_at_4, "4", "7/8"),
        ("5", "8", "4", "1/2"), ("6", "8", "8", "3/8"),
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "p0", "phat1", "exact_fraction"])
        writer.writerows(rows)


def test_report_table_reference_comparison(tmp_path, capsys):
    good = tmp_path / "ref.csv"
    _write_reference(good, "6")
    base = ["report", "table", "--p", "3", "--r", "1", "--samples", "500",
            "--seed", "7", "--out", str(tmp_path / "t.csv")]
    assert main(base + ["--expect", str(good)]) == EXIT_OK
    assert capsys.readouterr().err == ""

    # a reference claiming 10 length-4 encounter-free pseudo orbits is
    # inconsistent with the dyadic value 7/8 and must be flagged
    bad = tmp_path / "ref_bad.csv"
    _write_reference(bad, "10")
    assert main(base + ["--expect", str(bad)]) == EXIT_TABLE_MISMATCH
    assert capsys.readouterr().err == "mismatch: n=4 p0: computed 6, reference 10\n"


def test_report_table_reference_row_without_a_computed_row(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    ref.write_text("n,p0\n2,3\n9,1\n")
    assert main(["report", "table", "--p", "3", "--r", "1", "--n-max", "2", "--samples", "500",
                 "--mc-tol", "1", "--out", str(tmp_path / "t.csv"),
                 "--expect", str(ref)]) == EXIT_TABLE_MISMATCH
    assert capsys.readouterr().err == "mismatch: reference row n=9 has no computed counterpart\n"


def test_report_table_oracle_mismatch_exit(tmp_path, monkeypatch):
    # an oracle 1e-9 off the exact column trips the 1e-12 gate; the table
    # is still written
    from qgspectra import cli

    oracle = cli.minor_sum_variance
    monkeypatch.setattr(cli, "minor_sum_variance", lambda S, n: oracle(S, n) + 1e-9)
    out = tmp_path / "t.csv"
    assert main(["report", "table", "--p", "3", "--r", "1", "--n-max", "4", "--samples", "500",
                 "--mc-tol", "1", "--out", str(out)]) == EXIT_ORACLE_MISMATCH
    rows = _read_csv(out)
    assert [row["n"] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(float(row["oracle"]) == pytest.approx(float(row["exact"]) + 1e-9, abs=1e-12)
               for row in rows)


def test_report_table_reference_checks_absent_phat_columns(tmp_path, capsys):
    # B = 12 at p=3 r=1: rows n <= 2 reach no phat3 column, so a pinned
    # phat3 reads 0 there; above B/2 (n = 7) every census cell reads n/a
    ref = tmp_path / "ref.csv"
    base = ["report", "table", "--p", "3", "--r", "1", "--samples", "500", "--mc-tol", "1",
            "--out", str(tmp_path / "t.csv")]
    ref.write_text("n,phat3\n2,7\n")
    assert main(base + ["--n-max", "2", "--expect", str(ref)]) == EXIT_TABLE_MISMATCH
    assert capsys.readouterr().err == "mismatch: n=2 phat3: computed 0, reference 7\n"
    table = (tmp_path / "t.csv").read_bytes()
    assert main(base + ["--n-max", "2"]) == EXIT_OK
    assert (tmp_path / "t.csv").read_bytes() == table
    ref.write_text("n,p0,phat3,phat9\n2,3,0,0\n7,n/a,n/a,n/a\n")
    assert main(base + ["--n-max", "7", "--expect", str(ref)]) == EXIT_OK
    ref.write_text("n,phat9\n7,0\n")
    assert main(base + ["--n-max", "7", "--expect", str(ref)]) == EXIT_TABLE_MISMATCH
    assert capsys.readouterr().err == "mismatch: n=7 phat9: computed n/a, reference 0\n"


def test_report_table_reference_row_longer_than_header_exits_config(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    ref.write_text("n,p0\n2,3,9\n")
    assert main(["report", "table", "--p", "3", "--r", "1", "--n-max", "2", "--samples",
                 "500", "--out", str(tmp_path / "t.csv"), "--expect", str(ref)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: reference row n=2 has more fields than its header\n"


@pytest.mark.parametrize("argv, size", [
    (["variance", "exact", "--p", "3", "--r", "2"], 12),
    (["variance", "exact", "--p", "3", "--r", "2", "--n", "20"], 4),
    (["report", "table", "--p", "3", "--r", "1", "--n-max", "12",
      "--samples", "200", "--mc-tol", "1"], 6),
    (["variance", "diagonal", "--p", "3", "--r", "2"], 12),
    (["orbits", "classify", "--p", "3", "--r", "2", "--n", "20"], 4),
])
def test_one_engine_pass_per_command(argv, size, monkeypatch):
    # one engine call per command, sized at the largest index the mirror
    # leaves, however many indices the row holds; the census, the variance
    # pass and the oracle gate all run the one frontier loop
    from qgspectra import classify, cli, orbits

    def size_of(graph, ns):
        return ns if isinstance(ns, int) else max(min(n, graph.num_bonds - n) for n in ns)

    calls = []
    for module, name in ((orbits, "balanced_counts"), (classify, "balanced_counts"),
                         (cli, "balanced_counts"), (cli, "pseudo_orbit_counts")):
        engine = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, engine=engine: calls.append(size_of(*a[:2])) or engine(*a)
        )
    assert main(argv) == EXIT_OK
    assert calls == [size]


def test_report_table_mc_divergence_exit(tmp_path):
    # seed chosen so one coefficient lands beyond 3 stderr of the exact
    # value at 500 samples; a tiny --mc-tol leaves only that gate
    assert main(["report", "table", "--p", "3", "--r", "1",
                 "--samples", "500", "--seed", "36", "--mc-tol", "1e-12",
                 "--out", str(tmp_path / "t.csv")]) == EXIT_MC_DIVERGED


def test_report_convergence(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["report", "convergence", "--r", "2,3", "--n", "2",
                 "--samples", "400", "--seed", "5", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert [row["r"] for row in rows] == ["2", "3"]
    assert [row["B"] for row in rows] == ["8", "16"]
    for row in rows:
        dev = abs(float(row["mc_mean"]) - 0.5)
        assert float(row["abs_dev_from_half"]) == pytest.approx(dev, abs=1e-15)
    sidecar = json.loads((tmp_path / "conv.csv.meta.json").read_text())
    assert set(sidecar) == {"version", "config", "timings"}
    assert set(sidecar["timings"]) == {"total_s"}


def test_report_convergence_default_n_is_half(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["report", "convergence", "--r", "2", "--samples", "200",
                 "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert _read_csv(out)[0]["n"] == "4"


def test_config_error_exits(tmp_path, capsys):
    assert main(["variance", "exact", "--p", "2", "--r", "3"]) == EXIT_CONFIG
    assert main(["variance", "exact", "--p", "3", "--r", "1", "--n", "99"]) == EXIT_CONFIG
    assert main(["variance", "exact", "--p", "3", "--r", "1",
                 "--n", "2", "--n-max", "4"]) == EXIT_CONFIG
    assert main(["variance", "exact"]) == EXIT_CONFIG  # no graph source
    assert main(["orbits", "enumerate", "--p", "3", "--r", "1"]) == EXIT_CONFIG
    assert main(["no-such-command"]) == EXIT_CONFIG
    assert main(["report", "convergence", "--r", "0"]) == EXIT_CONFIG
    assert main(["report", "table", "--p", "3", "--r", "1", "--n-max", "-1"]) == EXIT_CONFIG
    assert main(["variance", "mc", "--p", "3", "--r", "1", "--n", "2",
                 "--kmax", "inf"]) == EXIT_CONFIG
    assert main(["report", "convergence", "--r", "2", "--kmax", "inf"]) == EXIT_CONFIG
    assert main(["variance", "mc", "--p", "3", "--r", "1", "--n", "2",
                 "--threads", "-3"]) == EXIT_CONFIG
    # counts need no enumeration budget
    assert main(["variance", "diagonal", "--p", "3", "--r", "1", "--n", "2",
                 "--cap", "10"]) == EXIT_CONFIG
    assert main(["orbits", "classify", "--p", "3", "--r", "1", "--n", "2",
                 "--cap", "10"]) == EXIT_CONFIG
    capsys.readouterr()
    # a tolerance that no comparison can fail would switch the MC gate off
    table = ["report", "table", "--p", "3", "--r", "1", "--samples", "200",
             "--seed", "1", "--kmax", "1e-3"]
    assert main(table) == EXIT_MC_DIVERGED
    capsys.readouterr()
    for tol in ("nan", "inf", "-1"):
        assert main(table + ["--mc-tol", tol]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "--mc-tol" in err


@pytest.mark.parametrize("mode", ["general", "bond_distinct"])
def test_cap_exit(mode):
    assert main(["orbits", "enumerate", "--p", "1", "--r", "3", "--n", "6",
                 "--mode", mode, "--cap", "10"]) == EXIT_CAP


@pytest.mark.parametrize("mode", ["general", "bond_distinct"])
def test_negative_cap_is_bad_input(mode, capsys):
    argv = ["orbits", "enumerate", "--p", "1", "--r", "3", "--n", "4", "--mode", mode]
    assert main(argv + ["--cap", "-1"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cap must be nonnegative, got -1\n"
    assert main(argv + ["--cap", "0"]) == EXIT_CAP


def test_module_entry_point_help():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qgspectra.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "report" in proc.stdout


def test_declared_console_entry_help():
    # the function pyproject.toml installs as the qgspectra script, run
    # without installing it
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, function = scripts["qgspectra"].split(":")
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}; {module}.{function}()", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0
    assert "report" in proc.stdout


@pytest.mark.skipif(shutil.which("qgspectra") is None, reason="script not on PATH")
def test_console_script_help():
    proc = subprocess.run(["qgspectra", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "report" in proc.stdout
