#!/usr/bin/env python3
"""Peak memory of the benchmark's memory cases, for the whole operation and
for each of its phases.

Usage:

    python scripts/peak_memory.py --workload large_dense --seed 1 [--json]

The cases are the ones perfbench/run.py traces for its peak_mem_ratio: the
workload's inputs at the seed, chosen by run.py's own mem_cases, and run by
its own execute (perfbench is imported, not changed).  The workload's
warm-up case runs first, then every case once untraced and once under
tracemalloc, as run.py reads it: that gives the operation's peak over the
input tensor's bytes, the case's peak_mem_ratio reading (within a few KB of
run.py's own, whose process has run more and collects its garbage at other
times).  Then every case runs once more under tracemalloc with its phases'
functions wrapped, which gives the peak inside each phase over the same
bytes:

  scans   require_essentially_nonnegative and weak_irreducibility_check
  y_pass  homotopy._y_pass, the residual's pass over the input
  j_pass  homotopy._j_pass, the Jacobian's pass and the system's assembly
  lapack  the path's LAPACK call (homotopy's linalg.solve)
  finish  homotopy._finish, the certified finish's sweeps
  save    tensorfile.save_tensor (file cases)
  load    the CLI's load_tensor (file cases)

A phase's peak counts everything live while it runs, what the operation
allocated before it included, so the largest phase peak is the operation's
peak when a phase sets it, give or take the wrappers' own few hundred bytes
of bookkeeping; "-" marks a phase the case does not reach.  The last row is
the workload's peak_mem_ratio, the largest case reading.  --json prints one
JSON object instead of the table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (phase, module of teneig, names in it the phase wraps)
PHASES = (
    ("scans", "homotopy", ("require_essentially_nonnegative", "weak_irreducibility_check")),
    ("scans", "pta", ("require_essentially_nonnegative",)),
    ("y_pass", "homotopy", ("_y_pass",)),
    ("j_pass", "homotopy", ("_j_pass",)),
    ("lapack", "homotopy", ("solve",)),
    ("finish", "homotopy", ("_finish",)),
    ("save", "tensorfile", ("save_tensor",)),
    ("load", "cli", ("load_tensor",)),
)
NAMES = list(dict.fromkeys(phase for phase, _, _ in PHASES))


class Peaks:
    """The tracemalloc peaks of one traced operation and of its phases.

    tracemalloc keeps one peak, so entering or leaving a phase folds the
    peak so far into the operation's and every open phase's, then resets it.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.op, self.phases, self.open = 0, {}, []

    def fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        self.op = max(self.op, peak)
        for entry in self.open:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()

    def wrap(self, phase, fn):
        def traced(*args, **kwargs):
            self.fold()
            self.open.append([phase, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold()
                _, peak = self.open.pop()
                self.phases[phase] = max(self.phases.get(phase, 0), peak)

        return traced


def perfbench():
    """perfbench's run and workloads modules, with teneig importable from
    this tree; run sets BLAS to one thread before numpy loads."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import run
    import workloads

    return run, workloads


def install(peaks):
    """Wrap every phase's names in teneig's modules with peaks' recorder."""
    import importlib

    for phase, module, names in PHASES:
        mod = importlib.import_module("teneig." + module)
        for name in names:
            setattr(mod, name, peaks.wrap(phase, getattr(mod, name)))


def traced_peak(op):
    """tracemalloc's peak over one call of op."""
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(run, workloads, workload, seed, workdir):
    """[(label, kind, input bytes, operation peak, {phase: peak})] for the
    workload's memory cases."""
    import teneig

    cases = workloads.BUILDERS[workload](teneig, seed)
    primary = "roundtrip" if workload == "file_roundtrip" else "solve"
    chosen = run.mem_cases([c for c in cases if primary in c.kinds])
    path = os.path.join(workdir, "mem.ten")
    ops = run.Ops(teneig)
    warm = workloads.warmup_case(teneig, workload)
    for kind in warm.kinds:
        run.execute(ops, warm, kind, path)
    whole = []
    for case in chosen:
        run.execute(ops, case, primary, path)
        whole.append(traced_peak(lambda: run.execute(ops, case, primary, path)))
    peaks = Peaks()
    install(peaks)
    ops = run.Ops(teneig)  # after install: Ops binds save_tensor
    out = []
    for case, op in zip(chosen, whole):
        peaks.reset()
        traced_peak(lambda: run.execute(ops, case, primary, path))
        out.append((case.label, primary, case.tensor.data.nbytes, op, dict(peaks.phases)))
    return out


def main(argv=None):
    run, workloads = perfbench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = measure(run, workloads, args.workload, args.seed, workdir)
    ratio = max(op / size for _, _, size, op, _ in rows)
    if args.json:
        cases = [
            {"case": label, "kind": kind, "bytes": size, "peak": op / size,
             "phases": {p: v / size for p, v in phases.items()}}
            for label, kind, size, op, phases in rows
        ]
        print(json.dumps({"workload": args.workload, "seed": args.seed, "cases": cases,
                          "peak_mem_ratio": ratio}))
        return 0
    print("%s, seed %d: peaks over the input's bytes" % (args.workload, args.seed))
    print("%-30s %9s" % ("case", "operation") + "".join(" %8s" % p for p in NAMES))
    for label, _, size, op, phases in rows:
        cells = ["%8.4f" % (phases[p] / size) if p in phases else "%8s" % "-" for p in NAMES]
        print("%-30s %9.4f " % (label, op / size) + " ".join(cells))
    print("%-30s %9.4f" % ("peak_mem_ratio", ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
