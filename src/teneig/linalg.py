"""Small dense linear solves by LU with partial pivoting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A pivot this small relative to its row's largest input entry is singular.
PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot_index):
        self.pivot_index = pivot_index
        super().__init__("matrix is numerically singular at pivot column %d" % pivot_index)


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


def lu_solve(M, rhs):
    """Solve M y = rhs by LU with partial pivoting."""
    return lu_apply(lu_factor(M), rhs)
