"""Smoke runs of the experiment scripts: each exits 0 and prints its table."""

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
