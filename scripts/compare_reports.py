#!/usr/bin/env python3
"""Compare the solver reports of two source trees on the benchmark's inputs.

Usage:

    python scripts/compare_reports.py BASE_TREE NEW_TREE --seeds 1 2 3

Each tree is the root of a teneig checkout (it holds src/teneig).  For every
seed, every case of the perfbench/workloads.py builders and of
known_defects (this repository's copy) is solved in each tree, in a
subprocess of its own that imports teneig from that tree alone, with BLAS on
one thread: solve_dominant for a "solve" case, pta_solve for a "pta" case,
and for a "roundtrip" case perfbench/run.py's own roundtrip, which saves the
tensor to a file in a temporary directory and runs `teneig solve FILE
--method both --json` through teneig.cli.main, so the file layer is compared
too.  The script prints how many reports of each tree ran the certified
finish (finish_sweeps > 0), how many carry a lambda outside their own
finite bracket [lam_lower, lam_upper] and how many a non-finite
residual_norm, then, per SolveReport.to_dict() field other than
wall_time_s, how many reports differ bit for bit (NaN equals NaN), for an
integer field how many of those went up and how many down, or that the
field is in one tree's reports only, the largest relative
differences in lambda and lambda_shifted, and per group one line of work
totals: the sums of the reports' integer fields (iter, nwtiter, the finish's
sweeps, the passes over the input and the LAPACK calls), base -> new, "-"
for a field a tree does not report.  It exits 1 when the two trees made
different sets of reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUPS = ("large_dense", "scaled_small", "file_roundtrip", "known_defects")
SKIPPED = ("wall_time_s",)


def import_teneig(tree):
    """teneig imported from ``tree``/src, with this repository's perfbench importable."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "perfbench")]
    import teneig

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(teneig.__file__).startswith(src + os.sep):
        raise SystemExit("teneig imported from %s, not from %s" % (teneig.__file__, src))
    return teneig


def benchmark_cases(teneig, groups, seeds):
    """(group, seed, index, case) for every case the groups' builders make at each seed."""
    import workloads

    builders = dict(workloads.BUILDERS, known_defects=workloads.known_defects)
    for seed in seeds:
        for group in groups:
            for i, case in enumerate(builders[group](teneig, seed)):
                yield group, seed, i, case


def dump(tree, groups, seeds):
    """Print one JSON line per report, made with the teneig of ``tree``."""
    teneig = import_teneig(tree)
    import run

    ops = run.Ops(teneig)
    solvers = {"solve": teneig.solve_dominant, "pta": teneig.pta_solve}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.ten")
        for group, seed, i, case in benchmark_cases(teneig, groups, seeds):
            for kind in case.kinds:
                if kind in solvers:
                    reps = [solvers[kind](case.tensor).to_dict()]
                else:
                    reps = run.roundtrip(ops, case, path)[1]
                for rep in reps:
                    key = [group, seed, i, case.label, rep["method"]]
                    print(json.dumps({"key": key, "report": rep}))


def reports(tree, groups, seeds):
    """{key: report} from a subprocess that runs dump() on ``tree``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", tree, "--groups", *groups]
    cmd += ["--seeds", *map(str, seeds)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("report run in %s failed:\n%s" % (tree, out.stderr))
    rows = (json.loads(line) for line in out.stdout.splitlines())
    return {tuple(row["key"]): row["report"] for row in rows}


def same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def rel_diff(a, b):
    if same(a, b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def outside(rep):
    """Whether the report's lambda lies outside its own finite bracket."""
    lo, hi = rep.get("lam_lower", math.nan), rep.get("lam_upper", math.nan)
    return math.isfinite(hi - lo) and not lo <= rep["lambda"] <= hi


TALLIES = (
    ("that ran the finish", lambda rep: rep.get("finish_sweeps", 0) > 0),
    ("with lambda outside their finite bracket", outside),
    ("with a non-finite residual_norm",
     lambda rep: not math.isfinite(rep.get("residual_norm", 0.0))),
)


def total(reports, keys, field):
    """The sum of field over the reports of keys, or "-" where they lack it."""
    if field not in reports[keys[0]]:
        return "-"
    return sum(reports[k][field] for k in keys)


def compare(base, new):
    """Print the per-field difference counts; return 0 if the report sets match."""
    keys = sorted(set(base) & set(new))
    print("reports compared: %d" % len(keys))
    for what, counted in TALLIES:
        tally = [sum(map(counted, reps.values())) for reps in (base, new)]
        print("reports %s: %d in the base tree, %d in the new tree" % (what, *tally))
    a, b = (base[keys[0]], new[keys[0]]) if keys else ({}, {})
    names = [*a, *(f for f in b if f not in a)]
    counts = [f for f in names if type({**b, **a}[f]) is int]  # not perturbed, a bool
    for f in names:
        if f in SKIPPED:
            continue
        if f not in a or f not in b:
            print("  %-16s only in the %s tree" % (f, "base" if f in a else "new"))
            continue
        differ = sum(not same(base[k][f], new[k][f]) for k in keys)
        line = "  %-16s %d differ" % (f, differ)
        if differ and f in counts:
            up = sum(new[k][f] > base[k][f] for k in keys)
            line += " (%d up, %d down)" % (up, differ - up)
        print(line)
    # lambda = lambda_shifted - alpha: one ulp of lambda_shifted is a large
    # relative step in a lambda much smaller than alpha.
    for f in ("lambda", "lambda_shifted"):
        worst = max((rel_diff(base[k][f], new[k][f]) for k in keys), default=0.0)
        print("largest relative %s difference: %.3g" % (f, worst))
    print("work totals, base -> new:")
    for group in sorted({k[0] for k in keys}):
        mine = [k for k in keys if k[0] == group]
        totals = ("%s %s -> %s" % (f, total(base, mine, f), total(new, mine, f)) for f in counts)
        print("  %-16s %s" % (group, ", ".join(totals)))
    only = sorted(set(base) ^ set(new))
    for k in only:
        print("only in %s tree: %s" % ("base" if k in base else "new", list(k)))
    return 1 if only else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("trees", nargs="*", metavar="TREE", help="BASE_TREE NEW_TREE")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--groups", nargs="+", choices=GROUPS, default=list(GROUPS),
                        help="workload builders to draw cases from (default: all)")
    parser.add_argument("--dump", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump, args.groups, args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, BASE_TREE NEW_TREE")
    base, new = (reports(os.path.abspath(t), args.groups, args.seeds) for t in args.trees)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
