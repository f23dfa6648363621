"""Dense linear solves: LAPACK with a conditioning check, and a reference LU.

The homotopy corrector's Newton and tangent systems go through ``solve``,
one LAPACK call per system on a k-by-c right-hand side.  ``lu_factor``
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
    LU found one.  It is None when the homotopy corrector raises it for a
    column ``solve`` rejected: LAPACK reports no relative pivot, so no
    column is named.
    """

    def __init__(self, pivot_index=None):
        self.pivot_index = pivot_index
        where = "" if pivot_index is None else " at pivot column %d" % pivot_index
        super().__init__("matrix is numerically singular" + where)


def solve(M, rhs):
    """Solve M Y = rhs, rhs k-by-c, with one LAPACK call (``np.linalg.solve``).

    Returns the list of Y's c columns, each None where it fails the check:
    LAPACK met an exactly zero pivot, the column y is not finite, or
    ||M||_inf ||y||_inf > ||rhs_j||_inf / PIVOT_RTOL.  Since ||y|| <=
    ||M^{-1}|| ||rhs_j||, that ratio is a lower bound on kappa_inf(M), so a
    column that fails it is singular to working precision.
    """
    try:
        y = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return [None] * rhs.shape[1]
    # The reductions behind .max(axis=0) and .sum(axis=1).max(), without the
    # method wrappers.  np.maximum propagates NaN, so a column's norm is
    # finite exactly when every entry is.  The norms are Python floats, whose
    # products overflow to inf silently where numpy scalars would warn; the
    # IEEE operations are the same.
    ny = np.maximum.reduce(np.abs(y), axis=0).tolist()
    nb = np.maximum.reduce(np.abs(rhs), axis=0).tolist()
    nM = float(np.maximum.reduce(np.add.reduce(np.abs(M), axis=1)))
    return [
        y[:, j] if math.isfinite(c) and not nM * c > r / PIVOT_RTOL else None
        for j, (c, r) in enumerate(zip(ny, nb))
    ]


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
