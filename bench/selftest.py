"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py

A tiny run of each workload, traced and untraced, prints a result with
every metric BENCHMARK.json names, in its unit; corrupted outputs fail the
checks; without the program's sources the benchmark fails and prints no
result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _bench(tmp_path, "--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


@pytest.fixture(scope="module")
def outputs():
    """Real outputs of one tiny unit of each CLI workload."""
    scan, tables = workloads.Scan(7, tiny=True), workloads.Tables(7, tiny=True)
    return scan, workloads.run_unit(scan)[0], tables, workloads.run_unit(tables)[0]


def _replace_line(text, index, line):
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def test_outputs_as_produced_pass(outputs):
    scan, scan_out, tables, tables_out = outputs
    assert scan.check(scan_out).failed == 0
    assert tables.check(tables_out).failed == 0


def test_unknown_verdict_fails(outputs):
    scan, scan_out, _, _ = outputs
    stdout, stderr = scan_out["default-row0"]
    row = stdout.splitlines()[1].split(",")
    row[3] = "evidence-maybe"
    bad = dict(scan_out, **{"default-row0": (_replace_line(stdout, 1, ",".join(row)), stderr)})
    with pytest.raises(CheckError):
        scan.check(bad)


def test_missing_scan_row_fails(outputs):
    scan, scan_out, _, _ = outputs
    stdout, stderr = scan_out["default-row0"]
    lines = stdout.splitlines()
    bad = dict(scan_out, **{"default-row0": ("\n".join(lines[:1] + lines[2:]) + "\n", stderr)})
    with pytest.raises(CheckError):
        scan.check(bad)


def test_changed_bytes_between_repetitions_fail(outputs):
    scan, scan_out, _, _ = outputs
    checker = workloads.Checker(scan)
    checker(scan_out)
    stdout, stderr = scan_out["deep-row0"]
    with pytest.raises(CheckError):
        checker(dict(scan_out, **{"deep-row0": (stdout.replace("0", "1", 1), stderr)}))


def test_trace_residual_above_bound_fails(outputs):
    _, _, tables, tables_out = outputs
    stdout, stderr = tables_out["trace-table-row0"]
    s, t, theta, _, closed, _ = stdout.splitlines()[1].split(",")
    numeric = float(closed) + 2e-9
    row = ",".join([s, t, theta, repr(numeric), closed, repr(abs(numeric - float(closed)))])
    with pytest.raises(CheckError, match="exceeds"):
        tables.check(dict(tables_out, **{"trace-table-row0": (_replace_line(stdout, 1, row), stderr)}))


def test_residual_column_inconsistent_with_traces_fails(outputs):
    _, _, tables, tables_out = outputs
    stdout, stderr = tables_out["trace-table-row0"]
    fields = stdout.splitlines()[1].split(",")
    fields[5] = "1e-12"
    with pytest.raises(CheckError):
        tables.check(dict(tables_out, **{"trace-table-row0": (_replace_line(stdout, 1, ",".join(fields)), stderr)}))


def test_surface_row_with_error_status_fails(outputs):
    _, _, tables, tables_out = outputs
    stdout, stderr = tables_out["surface"]
    fields = stdout.splitlines()[1].split(",")
    fields[4] = "error:no solution"
    with pytest.raises(CheckError):
        tables.check(dict(tables_out, surface=(_replace_line(stdout, 1, ",".join(fields)), stderr)))


def test_oracle_comparison_catches_a_wrong_spacing():
    from dataclasses import replace

    from modsym import anosov, charvar, highprec, modgroup

    s, t, theta = 1.0, 3.0, 0.5
    window = modgroup.random_f2_geodesic(workloads.WINDOW, 0)
    rep = charvar.rep_from_coords(charvar.Coordinates(s, t, theta))
    report = anosov.straightness_report(anosov.midpoint_sequence(rep, window),
                                        workloads.THETA_INTERVAL)
    hp = highprec.straightness_stats(s, t, theta, window)
    assert workloads.oracle_disagreement(report, hp) is None
    bad = replace(report, min_spacing=report.min_spacing * (1 + 1e-9))
    assert workloads.oracle_disagreement(bad, hp) == "spacing"


def test_domain_failures_are_counted_not_raised():
    results = [((("triangle", "ok"), ("morse", "ConvergenceError"), ("oracle", "deficit")), "")]
    tally = workloads.tally_items(results)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.reasons == {"morse:ConvergenceError": 1, "oracle:deficit": 1}


def test_tally_does_not_grow_with_repeated_units():
    class OneFailure:
        def check(self, outputs):
            tally = workloads.Tally(attempted=len(outputs))
            tally.fail("stub")
            return tally

    checker = workloads.Checker(OneFailure())
    unit = {"a": 1, "b": 2}
    for _ in range(3):
        checker(dict(unit))
    assert (checker.tally.attempted, checker.tally.failed) == (2, 1)
    with pytest.raises(CheckError):
        checker({"a": 1, "b": 3})
