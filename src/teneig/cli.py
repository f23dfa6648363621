"""Command line interface: solve, gen, compare.

Exit codes: 0 success, 1 solver did not converge, 2 bad input (parse or
precondition error), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import run_comparison
from .homotopy import HomotopyConfig, solve_dominant
from .instances import random_instance
from .pta import pta_solve
from .tensor import EssentialNonnegativityError
from .tensorfile import TensorFileError, load_tensor, save_tensor

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


# (flag, HomotopyConfig field, help); each flag's default is the field's.
_SOLVER_FLAGS = (
    ("--dtau0", "dtau0", "initial continuation step"),
    ("--eps1", "eps1", "path Newton tolerance"),
    ("--eps2", "eps2", "endgame / PTA residual tolerance"),
    ("--beta", "beta", "endgame threshold"),
    ("--epsilon", "eps_perturb", "constant added to A: homotopy on reducible input, PTA always"),
    ("--max-steps", "max_steps", "step / iteration cap"),
)


def _add_solver_flags(p):
    for flag, name, help_text in _SOLVER_FLAGS:
        default = getattr(HomotopyConfig, name)
        p.add_argument(flag, type=type(default), default=default, help=help_text)


def _config(args):
    """The solver config the flags select; ValueError names a bad value."""
    return HomotopyConfig(
        **{name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in _SOLVER_FLAGS}
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="teneig",
        description="Dominant eigenpair of an essentially nonnegative tensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a tensor file")
    p_solve.add_argument("path", help="tensor file")
    p_solve.add_argument("--method", choices=("homotopy", "pta", "both"), default="homotopy")
    p_solve.add_argument(
        "--assume",
        choices=("auto", "irreducible", "reducible"),
        default="auto",
        help="perturbation gate for the homotopy solver",
    )
    p_solve.add_argument("--json", action="store_true", help="machine readable report")
    _add_solver_flags(p_solve)

    p_gen = sub.add_parser("gen", help="write a seeded random instance")
    p_gen.add_argument("order", type=int)
    p_gen.add_argument("dim", type=int)
    p_gen.add_argument("-d", type=int, default=0, help="scale all entries by 10**-d")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", required=True, help="output path")

    p_cmp = sub.add_parser("compare", help="run both solvers on seeded instances")
    p_cmp.add_argument("order", type=int)
    p_cmp.add_argument("dim", type=int)
    p_cmp.add_argument("-d", type=int, default=0)
    p_cmp.add_argument("--count", type=int, default=10)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("-o", "--out", help="write the report here instead of stdout")
    p_cmp.add_argument("--json", action="store_true")
    _add_solver_flags(p_cmp)

    return parser


def _print_report(report, out):
    d = report.to_dict()
    out.write("method:    %s\n" % d["method"])
    out.write("status:    %s\n" % d["status"])
    out.write("lambda:    %.16g\n" % d["lambda"])
    out.write("x:         [%s]\n" % ", ".join("%.16g" % v for v in d["x"]))
    out.write("residual:  %.3e\n" % d["residual_norm"])
    out.write("iter:      %d\n" % d["iter"])
    out.write("nwtiter:   %d\n" % d["nwtiter"])
    out.write("time:      %.3f s\n" % d["wall_time_s"])
    out.write("alpha:     %.16g\n" % d["alpha"])
    out.write("perturbed: %s\n" % ("true" if d["perturbed"] else "false"))


def _cmd_solve(args, config):
    try:
        A = load_tensor(args.path)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except TensorFileError as exc:
        print("error: %s: %s" % (args.path, exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    reports = []
    try:
        if args.method in ("homotopy", "both"):
            reports.append(solve_dominant(A, config=config, assume=args.assume))
        if args.method in ("pta", "both"):
            reports.append(pta_solve(A, config=config))
    except EssentialNonnegativityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            _print_report(report, sys.stdout)
    if all(r.status == "converged" for r in reports):
        return EXIT_OK
    return EXIT_NO_CONVERGENCE


def _cmd_gen(args):
    try:
        A = random_instance(args.order, args.dim, d=args.d, seed=args.seed)
    except (ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        save_tensor(args.out, A)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    print("wrote %s (order %d, dim %d, d=%d, seed=%d)" % (args.out, args.order, args.dim, args.d, args.seed))
    return EXIT_OK


def _format_compare_text(records, summary):
    lines = []
    header = "%-6s %-10s %12s %6s %8s %9s %9s  %s" % (
        "seed",
        "solver",
        "lambda",
        "iter",
        "nwtiter",
        "time_s",
        "residual",
        "status",
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        lines.append(
            "%(seed)-6d %(method)-10s %(lambda)12.6g %(iter)6d %(nwtiter)8d %(wall_time_s)9.4f"
            " %(residual_norm)9.2e  %(status)s" % r
        )
    h, p = summary["homotopy"], summary["pta"]
    lines.append("")
    lines.append(
        "homotopy: aiter=%.2f anwtiter=%.2f atime=%.4fs converged=%d/%d"
        % (h["aiter"], h["anwtiter"], h["atime_s"], h["converged"], h["count"])
    )
    lines.append(
        "pta:      aiter=%.2f atime=%.4fs converged=%d/%d capped=%d"
        % (p["aiter"], p["atime_s"], p["converged"], p["count"], p["capped"])
    )
    gap = summary["max_lambda_gap"]
    lines.append("max lambda gap on jointly converged runs: %s" % ("%.3e" % gap if np.isfinite(gap) else "n/a"))
    return "\n".join(lines) + "\n"


def _cmd_compare(args, config):
    try:
        records, summary = run_comparison(
            args.order,
            args.dim,
            d=args.d,
            count=args.count,
            seed=args.seed,
            config=config,
        )
    except (ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.json:
        text = json.dumps(
            {"records": records, "summary": summary}, indent=2
        ) + "\n"
    else:
        text = _format_compare_text(records, summary)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    ok = all(r["status"] in ("converged", "step_limit") for r in records)
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    try:
        config = _config(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command == "solve":
        return _cmd_solve(args, config)
    return _cmd_compare(args, config)


if __name__ == "__main__":
    sys.exit(main())
