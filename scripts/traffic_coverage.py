#!/usr/bin/env python3
"""List the lines of src/teneig that the benchmark's operations never execute.

Usage:

    python scripts/traffic_coverage.py --groups scaled_small --seeds 1 2 3

Every case that the perfbench/workloads.py builders (known_defects included)
make for the given groups and seeds runs through perfbench/run.py's execute,
as the benchmark runs it, with the teneig of this checkout: solve_dominant
for a "solve" case, pta_solve for a "pta" case, and for a "roundtrip" case
save_tensor into a temporary file, then `teneig solve FILE --method both
--json` through teneig.cli.main.  The standard library's `trace` module
counts the lines they execute, on the kernel's worker threads too.  The
script prints, per module and function of src/teneig, the line numbers that
never ran, then a total.  Module-level lines run at import and are not
counted; a lambda's or comprehension's lines count as its enclosing
function's.
"""

from __future__ import annotations

import argparse
import dis
import inspect
import os
import sys
import tempfile
import threading
import trace
import types

from compare_reports import GROUPS, ROOT, benchmark_cases, import_teneig

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (first: it sets BLAS to one thread before numpy is imported)

SRC = os.path.join(ROOT, "src", "teneig")


def function_lines(path):
    """{function qualname: line numbers that start bytecode in its body}."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    lines = {}

    def walk(code, owner):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body runs at import
                walk(const, None)
                continue
            # A def's first line is its RESUME, which reports no line event.
            body = {line for _, line in dis.findlinestarts(const)} - {const.co_firstlineno}
            name = owner if owner and const.co_name.startswith("<") else const.co_qualname
            lines.setdefault(name, set()).update(body)
            walk(const, name)

    walk(module, None)
    return lines


def run_cases(teneig, groups, seeds, tmp):
    ops = run.Ops(teneig)
    path = os.path.join(tmp, "case.tns")
    for group, seed, i, case in benchmark_cases(teneig, groups, seeds):
        for kind in case.kinds:
            if run.execute(ops, case, kind, path)[0] != 0:
                raise SystemExit("teneig solve failed on %s seed %d case %d" % (group, seed, i))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--groups", nargs="+", choices=GROUPS, default=list(GROUPS),
                        help="workload builders to draw cases from (default: all)")
    args = parser.parse_args(argv)
    teneig = import_teneig(ROOT)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    threading.settrace(tracer.globaltrace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tracer.runfunc(run_cases, teneig, args.groups, args.seeds, tmp)
    finally:
        threading.settrace(None)
    ran = {(os.path.realpath(f), line) for f, line in tracer.results().counts}
    missed = total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(SRC, name))
        rows = []
        for func, lines in sorted(function_lines(path).items(), key=lambda kv: min(kv[1] or {0})):
            unrun = sorted(line for line in lines if (path, line) not in ran)
            total += len(lines)
            missed += len(unrun)
            if unrun:
                rows.append("  %s: %s" % (func, " ".join(map(str, unrun))))
        if rows:
            print("src/teneig/" + name)
            print("\n".join(rows))
    print("unexecuted: %d of %d function lines" % (missed, total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
