"""Power-type baseline solver for the dominant eigenpair.

Iterates x -> normalized (T x^{m-1})^{[1/(m-1)]} on the positive tensor
T = (A + eps) + alpha*I and brackets the eigenvalue by the componentwise
ratios.  Linearly convergent; serves as an independent cross-check for the
path-following solver and as the slow baseline on badly scaled instances.

T is never stored: each sweep makes one y-only pass over the input A and
adds T's two closed-form terms, alpha*x^{[m-1]} and eps*(1.x)^{m-1}, as
ShiftedTensor does, so the only n^m array is the input.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .homotopy import HomotopyConfig, SolveReport
from .tensor import EigenPair, _add_shift_terms, require_essentially_nonnegative, tvp

# Not called here: the benchmark's tracer (perfbench/spans.py) wraps these
# names in this module, so they must exist.
from .tensor import add_identity, perturb  # noqa: F401


def pta_solve(A, config=None):
    """Power-type iteration for the dominant eigenpair of A.

    Always iterates on T = (A + eps) + alpha*I, which is positive, so the
    iterates stay strictly positive and the ratio bracket
    [min_i y_i/x_i^{m-1}, max_i y_i/x_i^{m-1}] encloses the Perron value of
    T.  The reported eigenvalue estimate is the bracket midpoint, shifted
    back by alpha.  Of the HomotopyConfig it reads ``eps_perturb`` (eps),
    ``eps2`` and ``max_steps``: it stops when the stacked eigen-residual on T
    drops to eps2 or after max_steps sweeps (status "step_limit").
    """
    t_start = time.perf_counter()
    config = HomotopyConfig() if config is None else config
    alpha, eps = require_essentially_nonnegative(A)[0], config.eps_perturb
    m, n = A.order, A.dim
    x = np.ones(n) / np.sqrt(n)
    ex = 1.0 / (m - 1)
    iters = 0
    min_x = float(x.min())
    while True:
        y = tvp(A, x)
        xp = x ** (m - 1)
        _add_shift_terms(y, x, xp, m, alpha, eps)
        ratios = y / xp
        # Ufunc reductions skip the ndarray methods' Python wrappers.
        lam = 0.5 * (np.maximum.reduce(ratios) + np.minimum.reduce(ratios))
        r = y - lam * xp
        residual = math.sqrt(r @ r + (x @ x - 1.0) ** 2)
        if residual <= config.eps2:
            status = "converged"
            break
        if iters >= config.max_steps:
            status = "step_limit"
            break
        x = y**ex
        x /= math.sqrt(x @ x)
        lo = float(np.minimum.reduce(x))
        if not lo > 0.0:  # NaN too; an explicit raise also runs under python -O
            raise AssertionError("iterate left the positive cone")
        min_x = min(min_x, lo)
        iters += 1
    return SolveReport(
        method="pta",
        status=status,
        eigen=EigenPair(lam - alpha, x),
        residual_norm=residual,
        iter=iters,
        nwtiter=0,
        wall_time_s=time.perf_counter() - t_start,
        perturbed=True,
        alpha=alpha,
        lambda_shifted=float(lam),
        path_min_x=min_x,
    )


def convergence_rate_estimate(T):
    """Linear-rate bound for the power iteration on a nonnegative tensor:
    1 - min_{i,j} t[i,j,...,j] / max_i (full row sum of T).

    Invariant under positive scaling of T.  Values near 1 predict slow
    convergence.
    """
    data = T.data
    if (data < 0).any():
        raise ValueError("tensor must be nonnegative")
    n = T.dim
    row_sums = data.reshape(n, -1).sum(axis=1)
    denom = float(row_sums.max())
    if denom <= 0.0:
        raise ValueError("all-zero tensor has no convergence rate")
    idx = np.arange(n)
    trailing_equal = data[(slice(None),) + (idx,) * (T.order - 1)]
    return 1.0 - float(trailing_equal.min()) / denom
