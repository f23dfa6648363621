"""teneig benchmark: one workload per run, end-to-end or layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload large_dense --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for the reasons):
  large_dense     solve_dominant on 25-64 MB dense tensors, PTA on the irreducible ones
  scaled_small    solve_dominant on many small tensors at scales 1e0..1e-20,
                  near-reducible pairs, a log-uniform tensor; PTA on the paper's cells
  file_roundtrip  save_tensor, then `teneig solve FILE --method both --json`
                  through teneig.cli.main, then parsing its JSON

The loop is closed (one operation at a time, one process, BLAS on one
thread) and runs whole passes over the workload's inputs until --seconds
have passed; each input is timed as its best pass.  Every answer is checked
with perfbench/check.py, which does not use the solver.  --trace 0 reports
the end-to-end metrics, then runs scaled_small's known-defect cases once,
untimed, and prints how many fail; --trace 1 alternates untraced and traced
passes (perfbench/spans.py), reports the per-layer metrics per pass and the
tracing overhead, and writes the spans to .perfbench/trace-<workload>.jsonl.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Every operation of a workload is expected to pass its
check, so any failure makes `correct` false.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import statistics
import sys
import tracemalloc
from time import perf_counter

import check
import workloads
from spans import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")


class Ops:
    """The entry points one operation calls; traced or not."""

    def __init__(self, teneig, tracer=None):
        from teneig import cli, tensorfile

        self.solve = teneig.solve_dominant
        self.pta = teneig.pta_solve
        self.save = tensorfile.save_tensor
        self.cli = cli.main
        if tracer is not None:
            self.solve = tracer.own("solve", self.solve)
            self.pta = tracer.own("pta", self.pta)
            self.save = tracer.own("save", self.save)
            self.cli = tracer.own("cli", self.cli)


def roundtrip(ops, case, path):
    """save -> teneig solve FILE --method both --json -> parsed reports."""
    ops.save(path, case.tensor, fmt=case.fmt)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ops.cli(["solve", path, "--method", "both", "--json"])
    return rc, json.loads(buf.getvalue())


def execute(ops, case, kind, path):
    """Run one operation; return its answers as (method, status, lam, x, wall_s)."""
    if kind == "solve":
        rep = ops.solve(case.tensor)
        return 0, [("homotopy", rep.status, rep.eigen.lam, rep.eigen.x, rep.wall_time_s)]
    if kind == "pta":
        rep = ops.pta(case.tensor)
        return 0, [("pta", rep.status, rep.eigen.lam, rep.eigen.x, rep.wall_time_s)]
    rc, payload = roundtrip(ops, case, path)
    return rc, [(p["method"], p["status"], p["lambda"], p["x"], p["wall_time_s"]) for p in payload]


def verdict(case, rc, answers):
    """(failure reason or None, PTA capped?) for one operation's answers."""
    capped = False
    for method, status, lam, x, _ in answers:
        if method == "pta" and status == "step_limit":
            capped = True  # the paper's expected outcome, not a failure
            continue
        if status != "converged":
            return "%s status %s" % (method, status), capped
        if case.blocks is None:
            why = check.check_irreducible(case.tensor.data, lam, x)
        else:
            why = check.check_reducible(case.tensor.data, case.blocks, case.refs, lam, x)
        if why is not None:
            return "%s: %s" % (method, why), capped
    if rc not in (0, 1) or (rc == 1 and not capped):
        return "cli exit code %d" % rc, capped
    return None, capped


def run_op(ops, case, kind, i, tracer=None):
    if tracer is not None:
        tracer.op += 1
    path = os.path.join(WORKDIR, "case%d.ten" % i)
    rec = {"i": i, "case": case.label, "kind": kind, "capped": False}
    t = perf_counter()
    try:
        rc, answers = execute(ops, case, kind, path)
    except Exception as exc:  # a failed operation is a result, not a benchmark error
        rec["s"] = perf_counter() - t
        rec["fail"] = "raised %s: %s" % (type(exc).__name__, exc)
        return rec
    rec["s"] = perf_counter() - t
    rec["fail"], rec["capped"] = verdict(case, rc, answers)
    for method, _, _, _, wall in answers:
        rec[method + "_s"] = wall
    return rec


def measure(items, seconds, modes, between=None):
    """Whole passes over the (index, case, kind) items until `seconds` have
    passed, cycling through modes, calling `between` after each cycle.

    A mode is an (Ops, Tracer or None) pair; a tracer is installed only for
    its own passes, so traced and untraced passes interleave in time and see
    the same machine.  Returns the records of each mode and the passes per
    mode.
    """
    records = [[] for _ in modes]
    cycles = 0
    t_end = perf_counter() + seconds
    while cycles < 1 or perf_counter() < t_end:
        for out, (ops, tracer) in zip(records, modes):
            if tracer is not None:
                tracer.install()
            try:
                for i, case, kind in items:
                    out.append(run_op(ops, case, kind, i, tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
        cycles += 1
        if between is not None:
            between()
    return records, cycles


def best_of_passes(records, kind, key="s"):
    """Each input's fastest time over the passes.  Other processes on the
    machine only ever add time, so the minimum is the steadiest estimate of
    the program's own cost; medians and percentiles are then taken over inputs."""
    best = {}
    for r in records:
        if r["kind"] == kind and key in r:
            best[r["i"]] = min(best.get(r["i"], r[key]), r[key])
    return list(best.values())


def peak_mem_ratios(ops, cases, kind):
    """tracemalloc peak of one operation over the input tensor's bytes, per case."""
    out = []
    for case in cases:
        tracemalloc.start()
        try:
            execute(ops, case, kind, os.path.join(WORKDIR, "mem.ten"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append((case.label, peak / case.tensor.data.nbytes))
    return out


def mem_cases(cases):
    """One case per code path: the smallest tensor of each label stem (dense,
    block-diagonal, coo, near-reducible ...), at scale 1e0 where scales vary."""
    smallest = {}
    for c in cases:
        stem = c.label.split("(")[0]
        if "d=" in c.label and not c.label.endswith("d=0"):
            continue
        if stem not in smallest or c.tensor.data.size < smallest[stem].tensor.data.size:
            smallest[stem] = c
    return list(smallest.values())


def environment(seed, workload, numpy, cases):
    """Machine, software and input facts recorded with every result."""
    env = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": "unknown",
        "caches": {},
        "git_sha": git_sha(),
        "largest_operand_mb": max(c.tensor.data.nbytes for c in cases) / 1e6,
        "note": "computed bytes count array sizes from (m, n); the largest operand "
        "fits in the last-level cache here, so no bandwidth figure is claimed",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        env["blas"] = "unknown"
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            kind = {"Data": "d", "Instruction": "i"}.get(_read(os.path.join(d, "type")), "")
            env["caches"]["L" + _read(os.path.join(d, "level")) + kind] = _read(os.path.join(d, "size"))
    except OSError:
        pass
    return env


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def git_sha():
    """HEAD's commit read from .git, or a note when the checkout has none."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD"))
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            return _read(os.path.join(git, ref))
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quantile90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def report_failures(failed):
    seen = {}
    for r in failed:
        key = (r["case"], r["fail"].split(":")[0])
        seen[key] = seen.get(key, 0) + 1
    for (case, why), n in sorted(seen.items()):
        print("  failed %3dx %-32s %s" % (n, case, why))


def known_defects(ops, teneig, seed):
    """Run each known-defect case once, untimed, and print whether it still fails."""
    cases = workloads.known_defects(teneig, seed)
    fails = 0
    for i, case in enumerate(cases):
        rec = run_op(ops, case, case.kinds[0], i)
        fails += bool(rec["fail"])
        print("  known defect %-24s %s  [%s]" % (case.label, rec["fail"] or "passed now", case.defect))
    print("  known defects: %d of %d cases fail (run apart, not counted in attempted or failed)"
          % (fails, len(cases)))


def end_to_end(args, ops, items, cases, primary, setup):
    # One more set-up after each pass: set-up times then sample the whole
    # run, as the passes do, and not only the machine's state at its start.
    (records,), passes = measure(
        items, args.seconds, [(ops, None)], lambda: setup.append(set_up(args.workload, args.seed)[2])
    )
    op_s = best_of_passes(records, primary)
    if primary == "solve":
        pta_s = best_of_passes(records, "pta")
    else:
        pta_s = best_of_passes(records, "roundtrip", "pta_s")
    mem = peak_mem_ratios(ops, mem_cases([c for c in cases if primary in c.kinds]), primary)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(op_s), "s"),
        "op_s_p90": (quantile90(op_s), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "pta_solve_s_p50": (statistics.median(pta_s), "s"),
        "peak_mem_ratio": (max(v for _, v in mem), "1"),
    }
    print(
        "workload %s seed %d: %d passes, %d operations; %d %s and %d pta_solve inputs, "
        "each timed as its best of the passes; setup_s is the median of %d set-ups, one before and one after each pass"
        % (args.workload, args.seed, passes, len(records), len(op_s), primary, len(pta_s), len(setup))
    )
    for name, (value, unit) in metrics.items():
        print("  %-18s %.6g %s" % (name, value, unit))
    all_p50 = statistics.median(r["s"] for r in records if r["kind"] == primary)
    print("  %-18s %.6g s (median over every sample, not best-of-passes)" % ("op_s_p50_all", all_p50))
    if primary == "solve":
        aliases = {"solve_s_p50": "op_s_p50", "solve_s_p90": "op_s_p90", "solves_per_s": "ops_per_s"}
    else:
        solver = best_of_passes(records, "roundtrip", "homotopy_s")
        print("  %-18s %.6g s (solve_dominant inside the CLI)" % ("solve_s_p50", statistics.median(solver)))
        aliases = {"roundtrip_s_p50": "op_s_p50", "roundtrips_per_s": "ops_per_s"}
    for alias, name in aliases.items():
        print("  %-18s %.6g %s (= %s)" % (alias, metrics[name][0], metrics[name][1], name))
    for label, ratio in mem:
        print("  peak_mem %-28s %.4g x input" % (label, ratio))
    return records, metrics


def layer_by_layer(args, teneig, items, primary):
    from teneig import cli, homotopy, pta, tensor, tensorfile

    tracer = Tracer({"homotopy": homotopy, "pta": pta, "tensor": tensor, "cli": cli, "tensorfile": tensorfile})
    (plain, traced), passes = measure(items, args.seconds, [(Ops(teneig), None), (Ops(teneig, tracer), tracer)])
    layer, self_s, layer_self = tracer.layer_metrics(passes)
    plain_p50 = statistics.median(best_of_passes(plain, primary))
    traced_p50 = statistics.median(best_of_passes(traced, primary))
    layer["trace.overhead_s"] = traced_p50 - plain_p50
    layer["trace.overhead_share"] = layer["trace.overhead_s"] / plain_p50
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    print(
        "workload %s seed %d: %d untraced and %d traced passes, interleaved; %s best-of-passes "
        "median %.6g s untraced, %.6g s traced, overhead %+.6g s (%+.1f%%)"
        % (args.workload, args.seed, passes, passes, primary, plain_p50, traced_p50,
           layer["trace.overhead_s"], 100 * layer["trace.overhead_share"])
    )
    wall = sum(layer_self.values())
    print("  self time per pass by layer (share of traced time):")
    for name in sorted(layer_self, key=layer_self.get, reverse=True):
        print("    %-12s %.6g s  %5.1f%%" % (name, layer_self[name] / passes, 100 * layer_self[name] / wall))
    print("  dominant layer: %s" % max(LAYERS, key=lambda n: layer_self.get(n, 0.0)))
    print("  top spans by self time per pass:")
    for name in sorted(self_s, key=self_s.get, reverse=True)[:8]:
        print("    %-26s %.6g s  %5.1f%%" % (name, self_s[name] / passes, 100 * self_s[name] / wall))
    for name, (value, unit) in metrics.items():
        print("  %-36s %.6g %s" % (name, value, unit))
    tracer.write(os.path.join(WORKDIR, "trace-%s.jsonl" % args.workload))
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="teneig benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "teneig", "__init__.py")):
        print("error: no teneig sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy

    os.makedirs(WORKDIR, exist_ok=True)
    teneig, cases, setup_s = set_up(args.workload, args.seed)
    setup = [setup_s]
    plain = Ops(teneig)
    problems = check.self_test()
    for c in cases:
        if c.blocks is not None:
            c.refs = check.block_references(c.tensor.data, c.blocks)
    items = [(c, k) for c in cases for k in c.kinds if k != "pta"]
    items += [(c, "pta") for c in cases if "pta" in c.kinds]
    items = [(i, c, k) for i, (c, k) in enumerate(items)]
    primary = "roundtrip" if args.workload == "file_roundtrip" else "solve"

    env = environment(args.seed, args.workload, numpy, cases)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace == 0:
        records, metrics = end_to_end(args, plain, items, cases, primary, setup)
    else:
        records, metrics = layer_by_layer(args, teneig, items, primary)
    failed = [r for r in records if r["fail"]]
    print(
        "  attempted %d, failed %d, fail_share %.4g, pta capped %d"
        % (len(records), len(failed), len(failed) / len(records), sum(r["capped"] for r in records))
    )
    report_failures(failed)
    if args.trace == 0 and args.workload == "scaled_small":
        known_defects(plain, teneig, args.seed)
    for p in problems:
        print("  checker self-test failed: %s" % p)
    result = {
        "correct": not problems and not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name in os.listdir(WORKDIR):
        if name.endswith(".ten"):
            os.remove(os.path.join(WORKDIR, name))
    print(json.dumps(result))
    return 0


def set_up(workload, seed):
    """One timed set-up: import teneig anew (numpy, already loaded, is not
    re-imported), build the workload's inputs and run the warm-up case.
    Returns (teneig, cases, seconds)."""
    gc.collect()
    t = perf_counter()
    for mod in [m for m in sys.modules if m == "teneig" or m.startswith("teneig.")]:
        del sys.modules[mod]
    teneig = importlib.import_module("teneig")
    cases = workloads.BUILDERS[workload](teneig, seed)
    warm = workloads.warmup_case(teneig, workload)
    ops = Ops(teneig)
    for kind in warm.kinds:
        execute(ops, warm, kind, os.path.join(WORKDIR, "warmup.ten"))
    return teneig, cases, perf_counter() - t


def unit_of(name):
    """Unit of a per-layer metric; every total is per workload pass."""
    for suffix, unit in (
        (".sweep_us", "us/sweep"),
        ("_mb_per_s", "MB/s"),
        ("_share", "1"),
        ("overhead_s", "s"),
        (".s", "s/pass"),
        ("self_s", "s/pass"),
        ("bytes_computed", "B/pass"),
        (".bytes", "B/pass"),
        ("flops_computed", "flop/pass"),
    ):
        if name.endswith(suffix):
            return unit
    return "count/pass"


if __name__ == "__main__":
    sys.exit(main())
