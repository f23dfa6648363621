"""Smoke runs of the experiment scripts, each exiting 0 and printing its
table, and of the code in README.md."""

import argparse
import inspect
import json
import os
import re
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
    # no timed case reaches the certified finish; PTA's answers are not
    # clamped into their brackets; every residual is finite
    assert lines[1:4] == [
        "reports that ran the finish: 0 in the base tree, 0 in the new tree",
        "reports with lambda outside their finite bracket: 19 in the base tree, 19 in the new tree",
        "reports with a non-finite residual_norm: 0 in the base tree, 0 in the new tree",
    ]
    counts = [line.split() for line in lines[2:] if line.endswith(" differ")]
    assert [c[0] for c in counts] == [
        "method", "status", "lambda", "x", "residual_norm", "iter", "nwtiter",
        "alpha", "lambda_shifted", "perturbed", "path_min_x", "lam_lower",
        "lam_upper", "finish_sweeps", "y_passes", "jacobian_passes", "linear_solves",
    ]
    assert all(c[1] == "0" for c in counts)
    at = lines.index("work totals, base -> new:")
    assert lines[at - 2:at] == [
        "largest relative lambda difference: 0",
        "largest relative lambda_shifted difference: 0",
    ]
    # one line per group; a tree against itself does the same work
    work = lines[at + 1:]
    assert [line.split()[0] for line in work] == ["file_roundtrip", "scaled_small"]
    for line in work:
        totals = [t.split() for t in line.split(None, 1)[1].split(", ")]
        assert [t[0] for t in totals] == [
            "iter", "nwtiter", "finish_sweeps", "y_passes", "jacobian_passes", "linear_solves",
        ]
        assert all(t[1] == t[3] and t[2] == "->" for t in totals)


def _compare_reports():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import compare_reports
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return compare_reports


def _work_reports():
    """Two trees' reports of three cases in two groups: b's nwtiter goes up
    by one in the new tree, which alone reports y_passes."""

    def report(iters, nwt, **more):
        return {"lambda": 1.0, "lambda_shifted": 2.0, "iter": iters, "nwtiter": nwt,
                "perturbed": False, **more}

    old = {
        ("large", 1, 0, "a", "homotopy"): report(6, 8),
        ("large", 1, 1, "b", "homotopy"): report(7, 9),
        ("small", 1, 0, "c", "pta"): report(40, 0),
    }
    new = {
        ("large", 1, 0, "a", "homotopy"): report(6, 8, y_passes=16),
        ("large", 1, 1, "b", "homotopy"): report(7, 10, y_passes=19),
        ("small", 1, 0, "c", "pta"): report(40, 0, y_passes=41),
    }
    return old, new


def test_compare_reports_counts_the_finish_and_fields_of_one_tree(capsys):
    # a report with finish_sweeps > 0 ran the finish; one whose lambda lies
    # outside its finite bracket, or whose residual is not finite, is counted
    # too; a field only one tree reports is named, not compared
    compare_reports = _compare_reports()
    c, d = ("g", 1, 0, "c", "homotopy"), ("g", 1, 1, "d", "homotopy")
    old = {c: {"lambda": 1.0, "lambda_shifted": 2.0}}
    new = {c: {**old[c], "finish_sweeps": 3}}
    # d's lambda = 1 lies in an unbounded bracket in the base tree, and
    # outside a finite one, beside an infinite residual, in the new tree
    old[d] = {**old[c], "lam_lower": 0.5, "lam_upper": float("inf"), "residual_norm": 1e-12}
    new[d] = {**new[c], "lam_lower": 0.5, "lam_upper": 0.9, "residual_norm": float("inf")}
    assert compare_reports.compare(old, new) == 0
    assert capsys.readouterr().out.splitlines()[:7] == [
        "reports compared: 2",
        "reports that ran the finish: 0 in the base tree, 2 in the new tree",
        "reports with lambda outside their finite bracket: 0 in the base tree, 1 in the new tree",
        "reports with a non-finite residual_norm: 0 in the base tree, 1 in the new tree",
        "  lambda           0 differ",
        "  lambda_shifted   0 differ",
        "  finish_sweeps    only in the new tree",
    ]


def test_compare_reports_totals_the_work_per_group(capsys):
    # the sums of the reports' integer fields, base -> new, one line per
    # group; a field one tree does not report reads "-" there
    compare_reports = _compare_reports()

    old, new = _work_reports()
    assert compare_reports.compare(old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("work totals, base -> new:") + 1:] == [
        "  large            iter 13 -> 13, nwtiter 17 -> 18, y_passes - -> 35",
        "  small            iter 40 -> 40, nwtiter 0 -> 0, y_passes - -> 41",
    ]


def test_compare_reports_splits_a_differing_work_field_into_up_and_down(capsys):
    # an integer field that differs says how many reports went up and how
    # many down; one that does not, or a float, keeps its plain count
    compare_reports = _compare_reports()
    old, new = _work_reports()
    new[("small", 1, 0, "c", "pta")]["iter"] = 39
    new[("large", 1, 0, "a", "homotopy")]["nwtiter"] = 7
    new[("large", 1, 0, "a", "homotopy")]["lambda"] = 1.5
    assert compare_reports.compare(old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:10] == [
        "  lambda           1 differ",
        "  lambda_shifted   0 differ",
        "  iter             1 differ (0 up, 1 down)",
        "  nwtiter          2 differ (1 up, 1 down)",
        "  perturbed        0 differ",
        "  y_passes         only in the new tree",
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


@pytest.mark.parametrize("as_json", [False, True])
def test_peak_memory_prints_each_case_and_its_phases(as_json):
    # file_roundtrip's memory cases are its smallest dense and coo files;
    # the load reads the file and the solves run no finish
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "peak_memory.py"), "--workload", "file_roundtrip",
         "--seed", "1", *(["--json"] if as_json else [])],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if not as_json:
        lines = proc.stdout.splitlines()
        assert lines[1].split() == ["case", "operation", "scans", "y_pass", "j_pass", "lapack",
                                    "finish", "save", "load"]
        assert [line.split()[0] for line in lines[2:]] == ["dense(4,10)", "coo(3,40)", "peak_mem_ratio"]
        assert lines[2].split()[6] == "-"
        return
    out = json.loads(proc.stdout)
    assert [c["case"] for c in out["cases"]] == ["dense(4,10)", "coo(3,40)"]
    assert out["peak_mem_ratio"] == max(c["peak"] for c in out["cases"])
    for case in out["cases"]:
        assert set(case["phases"]) == {"scans", "y_pass", "j_pass", "lapack", "save", "load"}
        # the load makes the tensor, so it and the operation hold at least one
        assert case["phases"]["load"] >= 1.0 and case["peak"] >= 1.0


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
    # no benchmark point has a singular Jacobian, so newton_correct never
    # rejects a point for want of a tangent (its SingularMatrixError, after
    # the loop) and predict runs whole; the reference LU is called by tests
    # alone
    src, first = inspect.getsourcelines(homotopy.newton_correct)
    no_tangent = [first + i for i, text in enumerate(src) if "SingularMatrixError()" in text][0]
    assert str(no_tangent) in rows["newton_correct"].split()
    assert "predict" not in rows
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


def test_readme_python_blocks_run_in_order():
    # the quickstart, "To check a report" and run_comparison, in one namespace
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].status == "converged"
    assert len(namespace["records"]) == 10


def test_readme_cli_flags_are_options_of_solve_or_compare():
    # a flag deleted from the parser must not linger in the docs
    from teneig.cli import build_parser

    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", text, re.M | re.S).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = set(sub.choices["solve"]._option_string_actions)
    options |= set(sub.choices["compare"]._option_string_actions)
    assert {"--epsilon", "--max-steps", "--json"} <= named
    assert named <= options
