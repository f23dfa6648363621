"""Smoke runs of the experiment scripts: each exits 0 and prints its table."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, rows",
    [
        (
            "run_reference_examples.py",
            ["--skip-large", "--pta"],
            ["instance", "dense 3x3x3", "power baseline", "sparse 3x3x3", "power baseline"],
        ),
        (
            "run_scaling_comparison.py",
            ["--count", "2", "--cell", "3,4,1"],
            ["(m,n)", "-----", "(3,4)"],
        ),
    ],
)
def test_script_prints_its_table(script, args, rows):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(rows)
    for line, start in zip(lines, rows):
        assert line.strip().startswith(start)


def test_compare_reports_finds_no_difference_between_a_tree_and_itself():
    # file_roundtrip's 10 cases give 20 reports through save_tensor and the CLI
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_reports.py"), str(ROOT), str(ROOT),
         "--groups", "scaled_small", "file_roundtrip", "--seeds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "reports compared: 96"
    counts = [line.split() for line in lines[1:] if line.endswith(" differ")]
    assert [c[0] for c in counts] == [
        "method", "status", "lambda", "x", "residual_norm", "iter", "nwtiter",
        "alpha", "lambda_shifted", "perturbed", "path_min_x",
    ]
    assert all(c[1] == "0" for c in counts)
    assert lines[-2:] == [
        "largest relative lambda difference: 0",
        "largest relative lambda_shifted difference: 0",
    ]


def test_paired_bench_runs_a_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_bench.py"), str(ROOT), str(ROOT),
         "--workload", "scaled_small", "--pairs", "1", "--seconds", "0.2", "--seed0", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines if line.startswith("pair ")] == ["pair", "pair"]
    assert [line.split()[0] for line in lines[-len(names):]] == names


def test_traffic_coverage_lists_the_lines_no_benchmark_case_runs():
    from teneig import homotopy

    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "traffic_coverage.py"),
         "--groups", "scaled_small", "--seeds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("unexecuted: ")
    rows = {line.split(":")[0].strip(): line for line in lines if line.startswith("  ")}
    # no benchmark point has a singular Jacobian, so predict never raises;
    # the reference LU is called by tests alone
    src, first = inspect.getsourcelines(homotopy.predict)
    (raise_line,) = [first + i for i, text in enumerate(src) if "raise " in text]
    assert rows["predict"] == "  predict: %d" % raise_line
    assert "lu_factor" in rows
    assert "_system" not in rows


@pytest.mark.parametrize(
    "group, seed, rc, listed",
    [("file_roundtrip", 33, 1, [("coo(3,40)", "pta:")]), ("scaled_small", 1, 0, [])],
)
def test_failing_cases_lists_the_operations_that_fail_the_check(group, seed, rc, listed):
    # file_roundtrip's coo(3,40) at seed 33 is a PTA answer with the eps bias
    # (ROADMAP item 17); scaled_small at seed 1 passes throughout
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "failing_cases.py"), str(ROOT),
         "--groups", group, "--first", str(seed), "--last", str(seed)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == rc, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "failing operations: %d (groups %s, seeds %d..%d)" % (len(listed), group, seed, seed)
    rows = [line.split() for line in lines[:-1]]
    assert [(r[3], r[5]) for r in rows] == listed
    assert all(r[:3] == [group, "seed", str(seed)] for r in rows)
