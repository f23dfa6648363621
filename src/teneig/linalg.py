"""Dense linear solves: LAPACK with a conditioning check, and a reference LU.

The solver's Newton and tangent systems go through ``solve``.  ``lu_factor``
and ``lu_apply`` are a hand-written LU with partial pivoting: the reference
that ``solve`` is tested against, and a name the benchmark tracer
(perfbench/spans.py) wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# A matrix is singular to working precision when an LU pivot is this small
# relative to its row's largest entry, or when a lower bound on its
# infinity-norm condition number exceeds 1 / PIVOT_RTOL.
PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    """A linear system is singular to working precision.

    ``pivot_index`` names the column of the negligible pivot when the hand
    LU found one.  It is None when ``solve`` rejected the system: LAPACK
    reports no relative pivot, so no column is named.
    """

    def __init__(self, pivot_index=None):
        self.pivot_index = pivot_index
        where = "" if pivot_index is None else " at pivot column %d" % pivot_index
        super().__init__("matrix is numerically singular" + where)


def solve(M, rhs):
    """Solve M y = rhs with LAPACK (``np.linalg.solve``).

    Raises SingularMatrixError when LAPACK meets an exactly zero pivot, when
    y is not finite, or when ||M||_inf ||y||_inf > ||rhs||_inf / PIVOT_RTOL.
    Since ||y|| <= ||M^{-1}|| ||rhs||, that ratio is a lower bound on
    kappa_inf(M), so a system that fails it is singular to working precision.
    """
    try:
        y = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError() from None
    # The reductions behind .sum(axis=1).max(), without the method wrappers.
    # np.maximum propagates NaN, so ny is finite exactly when every y_i is.
    # The norms are Python floats, whose products overflow to inf silently
    # where numpy scalars would warn; the IEEE operations are the same.
    ny = float(np.maximum.reduce(np.abs(y)))
    if not math.isfinite(ny):
        raise SingularMatrixError()
    nM = float(np.maximum.reduce(np.add.reduce(np.abs(M), axis=1)))
    if nM * ny > float(np.maximum.reduce(np.abs(rhs))) / PIVOT_RTOL:
        raise SingularMatrixError()
    return y


@dataclass
class LuFactorization:
    """Combined L/U storage from partial-pivoting elimination.

    ``lu`` holds U on and above the diagonal and the unit-lower multipliers
    below it; ``perm[i]`` is the input row sitting at position i.  When the
    elimination hit a negligible pivot, ``singular`` is set and
    ``pivot_index`` names the failing column.
    """

    lu: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)
    singular: bool
    pivot_index: int | None


def lu_factor(M):
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (A.shape,))
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    k = A.shape[0]
    perm = np.arange(k)
    scale = np.abs(A).max(axis=1) if k else np.zeros(0)
    for col in range(k):
        p = col + int(np.abs(A[col:, col]).argmax())
        if abs(A[p, col]) <= PIVOT_RTOL * scale[p]:
            return LuFactorization(A, perm, True, col)
        if p != col:
            A[[col, p]] = A[[p, col]]
            perm[[col, p]] = perm[[p, col]]
            scale[[col, p]] = scale[[p, col]]
        mult = A[col + 1 :, col] / A[col, col]
        A[col + 1 :, col] = mult
        A[col + 1 :, col + 1 :] -= np.outer(mult, A[col, col + 1 :])
    return LuFactorization(A, perm, False, None)


def lu_apply(fact, rhs):
    """Solve with an existing factorization; raises on a singular one."""
    if fact.singular:
        raise SingularMatrixError(fact.pivot_index)
    lu, perm = fact.lu, fact.perm
    k = lu.shape[0]
    y = np.asarray(rhs, dtype=float)[perm].copy()
    for i in range(1, k):
        y[i] -= lu[i, :i] @ y[:i]
    for i in range(k - 1, -1, -1):
        y[i] = (y[i] - lu[i, i + 1 :] @ y[i + 1 :]) / lu[i, i]
    return y
