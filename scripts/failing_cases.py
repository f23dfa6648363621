#!/usr/bin/env python3
"""List the benchmark operations that fail perfbench's own answer check.

Usage:

    python scripts/failing_cases.py TREE --groups file_roundtrip --first 0 --last 999

TREE is the root of a teneig checkout (it holds src/teneig).  Every case
that this repository's perfbench/workloads.py builders make for the given
groups, at each seed from FIRST to LAST, runs once with the teneig of TREE,
as perfbench/run.py runs it: each kind of operation the case lists, BLAS on
one thread, a reducible case checked against check.block_references, and
the answers judged by run.py's verdict.  The script prints one line per
failing operation (group, seed, case, kind and the reason), then a total,
and exits 1 when an operation failed.  Run on a parent tree, it tells a
failure the parent shares from one that a change brings.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from compare_reports import ROOT, benchmark_cases, import_teneig

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (first: it sets BLAS to one thread before numpy is imported)
import check  # noqa: E402
import workloads  # noqa: E402


def failures(teneig, groups, seeds, path):
    """(group, seed, label, kind, reason) of every operation that fails the
    check; a roundtrip writes its file to path."""
    ops = run.Ops(teneig)
    for group, seed, _, case in benchmark_cases(teneig, groups, seeds):
        if case.blocks is not None:
            case.refs = check.block_references(case.tensor.data, case.blocks)
        for kind in case.kinds:
            try:
                rc, answers = run.execute(ops, case, kind, path)
                why = run.verdict(case, rc, answers)[0]
            except Exception as exc:  # a failed operation is a result
                why = "raised %s: %s" % (type(exc).__name__, exc)
            if why is not None:
                yield group, seed, case.label, kind, why


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("tree", metavar="TREE")
    parser.add_argument("--groups", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--first", type=int, default=1, help="first seed (default: 1)")
    parser.add_argument("--last", type=int, default=1, help="last seed, included (default: 1)")
    args = parser.parse_args(argv)
    if args.last < args.first:
        parser.error("--last must not be below --first")
    teneig = import_teneig(os.path.abspath(args.tree))
    seeds = range(args.first, args.last + 1)
    with tempfile.TemporaryDirectory() as tmp:
        failed = 0
        for group, seed, label, kind, why in failures(teneig, args.groups, seeds, os.path.join(tmp, "case.ten")):
            failed += 1
            print("%s seed %d %s %s: %s" % (group, seed, label, kind, why), flush=True)
    print("failing operations: %d (groups %s, seeds %d..%d)" % (
        failed, " ".join(args.groups), args.first, args.last))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
