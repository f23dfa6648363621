#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and compare.

Usage:

    python scripts/paired_bench.py BASE_TREE NEW_TREE --workload scaled_small \\
        --pairs 10 --seconds 12 --seed0 1

Each tree is the root of a teneig checkout that holds perfbench/run.py.  Pair
i runs both trees' perfbench/run.py at seed SEED0+i, one after the other, in
a fresh process each; the base tree goes first in even pairs and the new
tree in odd ones, so a slow spell on the machine falls on both sides.  The
script prints each run's end-to-end metrics, then one row per metric of
BENCHMARK.json's end_to_end list: each side's median and quartiles over the
pairs, the relative change of the medians, and how many pairs the new tree
won.  A pair is won when the new value is better in the metric's `better`
direction; a tie counts for neither side.  `gain` is yes when the new tree
won at least nine tenths of the pairs and the medians differ by more than
the distance between the base tree's quartiles.  The script exits 1 when a
run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    """[(name, unit, better)] from this repository's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def run(tree, workload, seed, seconds):
    """The last JSON line of one perfbench/run.py run in ``tree``."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("benchmark run in %s failed:\n%s" % (tree, out.stderr))
    return json.loads(out.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metrics, runs):
    """One row per metric over the (base, new) result pairs."""
    print("%-16s %-4s %32s %32s %8s %5s %4s" % (
        "metric", "unit", "base median [q1, q3]", "new median [q1, q3]", "change", "wins", "gain"))
    for name, unit, better in metrics:
        base = [b["metrics"][name]["value"] for b, _ in runs]
        new = [n["metrics"][name]["value"] for _, n in runs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        mb, mn = statistics.median(base), statistics.median(new)
        bq, nq = quartiles(base), quartiles(new)
        gain = wins >= 0.9 * len(runs) and abs(mn - mb) > bq[1] - bq[0]
        change = (mn - mb) / mb if mb else float("nan")
        print("%-16s %-4s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %+7.1f%% %2d/%-2d %4s" % (
            name, unit, mb, *bq, mn, *nq, 100 * change, wins, len(runs), "yes" if gain else "no"))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", metavar="BASE_TREE")
    parser.add_argument("new", metavar="NEW_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = end_to_end_metrics()
    trees = {"base": os.path.abspath(args.base), "new": os.path.abspath(args.new)}
    runs, bad = [], 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        result = {side: run(trees[side], args.workload, seed, args.seconds) for side in order}
        for side in order:
            r = result[side]
            bad += not r["correct"]
            values = " ".join("%s=%.6g" % (name, r["metrics"][name]["value"]) for name, _, _ in metrics)
            print("pair %d seed %d %-4s attempted %d failed %d %s" % (
                i + 1, seed, side, r["attempted"], r["failed"], values))
        runs.append((result["base"], result["new"]))
    summarize(metrics, runs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
