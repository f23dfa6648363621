"""Power-type baseline solver for the dominant eigenpair.

Iterates x -> normalized (T x^{m-1})^{[1/(m-1)]} on the positive tensor
T = (A + eps) + alpha*I and brackets the eigenvalue by the componentwise
ratios.  Linearly convergent; serves as an independent cross-check for the
path-following solver and as the slow baseline on badly scaled instances.

T is never stored: each sweep makes one y-only pass over the input A and
adds T's two closed-form terms, alpha*x^{[m-1]} and eps*(1.x)^{m-1}, by
_add_shift_terms, as the homotopy's y-pass does, so the only n^m array is
the input.  The last sweep only measures its residual, so a report has
y_passes = iter + 1 and no J-pass or LAPACK call.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .homotopy import EPS2, HomotopyConfig, SolveReport
from .tensor import EigenPair, _add_shift_terms, ratio_bracket, require_essentially_nonnegative, tvp

# Not called here: the benchmark's tracer (perfbench/spans.py) wraps these
# names in this module, so they must exist.
from .tensor import add_identity, perturb  # noqa: F401


def pta_solve(A, config=None):
    """Power-type iteration for the dominant eigenpair of A.

    Always iterates on T = (A + eps) + alpha*I, which is positive, so the
    iterates stay strictly positive and the ratio bracket
    [min_i y_i/x_i^{m-1}, max_i y_i/x_i^{m-1}] encloses the Perron value of
    T.  The reported eigenvalue estimate is its midpoint, shifted back by
    alpha; lam_lower and lam_upper bracket A's from the last sweep's
    A x^{m-1}, taken before T's terms are added.  It adds the config's
    ``eps_perturb`` and stops when the stacked eigen-residual on T drops to
    the endgame tolerance EPS2 or after ``max_steps`` sweeps ("step_limit").
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
        ya = tvp(A, x)  # A x^{m-1}
        xp = x ** (m - 1)
        y = ya.copy()
        _add_shift_terms(y, x, xp, m, alpha, eps)
        ratios = y / xp
        # Ufunc reductions skip the ndarray methods' Python wrappers.
        lam = 0.5 * (np.maximum.reduce(ratios) + np.minimum.reduce(ratios))
        r = y - lam * xp
        residual = math.sqrt(r @ r + (x @ x - 1.0) ** 2)
        if residual <= EPS2:
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
    lower, upper = ratio_bracket(ya, xp)
    return SolveReport(
        "pta", status, EigenPair(lam - alpha, x), residual_norm=residual, iter=iters,
        wall_time_s=time.perf_counter() - t_start, alpha=alpha, lambda_shifted=float(lam),
        perturbed=True, path_min_x=min_x, lam_lower=lower, lam_upper=upper, y_passes=iters + 1,
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
