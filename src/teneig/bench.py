"""Batch comparison of the path-following solver against the power baseline
on seeded random instances, with per-instance records and cell averages."""

from __future__ import annotations

from .homotopy import HomotopyConfig, SolveReport, solve_dominant
from .instances import GENERATOR_ID, random_instance
from .pta import pta_solve


def run_comparison(order, dim, d, count, seed=0, config=None):
    """Run both solvers on ``count`` seeded instances of one (m, n, d) cell.

    Instance i uses seed ``seed + i``.  Returns (records, summary); records
    are emitted in instance order, homotopy before pta for each instance.
    A record is the instance's order, dim, d, seed and generator followed
    by ``SolveReport.to_dict()``; the seed regenerates the instance.
    Solver exceptions are recorded as status "error" rather than aborting
    the batch.  Both solvers take ``config`` (default ``HomotopyConfig()``).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    config = HomotopyConfig() if config is None else config
    records = []
    for i in range(count):
        inst_seed = seed + i
        A = random_instance(order, dim, d=d, seed=inst_seed)
        instance = {"order": order, "dim": dim, "d": d, "seed": inst_seed, "generator": GENERATOR_ID}
        for method, runner in (
            ("homotopy", lambda t: solve_dominant(t, config=config)),
            ("pta", lambda t: pta_solve(t, config=config)),
        ):
            try:
                report = runner(A)
            except Exception as exc:  # record, keep the batch going
                report = SolveReport(method, "error: %s" % exc)
            records.append({**instance, **report.to_dict()})
    return records, summarize(records)


def summarize(records):
    """Arithmetic means over the per-solver records, plus the PTA cap count
    and the largest cross-solver eigenvalue gap on jointly converged runs."""
    homo = [r for r in records if r["method"] == "homotopy"]
    pta = [r for r in records if r["method"] == "pta"]

    def mean(rows, key):
        return sum(r[key] for r in rows) / len(rows) if rows else float("nan")

    by_seed = {(r["seed"], r["method"]): r for r in records}
    gaps = [
        abs(by_seed[(s, "homotopy")]["lambda"] - by_seed[(s, "pta")]["lambda"])
        for s in {r["seed"] for r in records}
        if by_seed.get((s, "homotopy"), None) is not None
        and by_seed.get((s, "pta"), None) is not None
        and by_seed[(s, "homotopy")]["status"] == "converged"
        and by_seed[(s, "pta")]["status"] == "converged"
    ]
    return {
        "homotopy": {
            "aiter": mean(homo, "iter"),
            "anwtiter": mean(homo, "nwtiter"),
            "atime_s": mean(homo, "wall_time_s"),
            "converged": sum(r["status"] == "converged" for r in homo),
            "count": len(homo),
        },
        "pta": {
            "aiter": mean(pta, "iter"),
            "atime_s": mean(pta, "wall_time_s"),
            "converged": sum(r["status"] == "converged" for r in pta),
            "capped": sum(r["status"] == "step_limit" for r in pta),
            "count": len(pta),
        },
        "max_lambda_gap": max(gaps) if gaps else float("nan"),
    }
