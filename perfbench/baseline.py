"""Record the benchmark's baseline: every workload on several seeds, plus one
traced run per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs perfbench/run.py one process at a time with BENCHMARK.json's run_seconds
and writes, per workload, each end-to-end metric's values, median and
quartile spread (the distance between the first and third quartile over the
median), the failure counts, and the per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF_TIMES = {
    "tensor": "tensor.self_s",
    "linalg": "linalg.self_s",
    "homotopy": "homotopy.self_s",
    "pta": "pta.self_s",
    "tensorfile": "tensorfile.self_s",
    "cli": "cli.solve.self_s",
}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    result = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            env, res = run(name, seed, seconds, 0)
            runs.append(res)
            print(name, seed, json.dumps(res), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": values,
            }
            print("  %-16s median %.6g  spread %.4f  bound %.2f" % (m["name"], med, (q3 - q1) / med, m["bound"]))
        _, traced = run(name, args.seeds[0], seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        dominant = max(SELF_TIMES, key=lambda k: layer[SELF_TIMES[k]])
        print("  traced: dominant layer %s" % dominant, flush=True)
        result["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "traced_seed": args.seeds[0],
            "dominant_layer": dominant,
            "per_layer": layer,
            "largest_operand_mb": env["largest_operand_mb"],
        }
        result["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "largest_operand_mb")}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
