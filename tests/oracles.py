"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (full index enumeration, bisection,
long-run matrix power iteration, central differences) and shares no code
path with the library.
"""

from itertools import permutations, product
from math import factorial

import numpy as np


def tvp_naive(data, x):
    """Direct summation of t[i, i2, ..., im] * x[i2] * ... * x[im]."""
    m, n = data.ndim, data.shape[0]
    out = np.zeros(n)
    for idx in product(range(n), repeat=m):
        term = data[idx]
        for j in idx[1:]:
            term *= x[j]
        out[idx[0]] += term
    return out


def matrix_contraction_naive(data, x):
    """Direct summation of the n-by-n matrix t[i, j, i3, ..., im] x[i3]...x[im]."""
    m, n = data.ndim, data.shape[0]
    M = np.zeros((n, n))
    for idx in product(range(n), repeat=m):
        term = data[idx]
        for j in idx[2:]:
            term *= x[j]
        M[idx[0], idx[1]] += term
    return M


def semi_symmetrize_naive(data):
    """Entrywise average over permutations of the trailing indices."""
    m = data.ndim
    perms = list(permutations(range(1, m)))
    out = np.zeros_like(data)
    for idx in product(range(data.shape[0]), repeat=m):
        acc = 0.0
        for p in perms:
            acc += data[(idx[0],) + tuple(idx[q] for q in p)]
        out[idx] = acc / factorial(m - 1)
    return out


def full_symmetrize(data):
    """Average over permutations of all indices; preserves nonnegativity."""
    m = data.ndim
    acc = np.zeros_like(data)
    for p in permutations(range(m)):
        acc += np.transpose(data, p)
    return acc / factorial(m)


def matrix_power_iteration(M, tol=1e-13, max_iter=200000):
    """Dominant eigenpair of a nonnegative matrix by long-run power iteration."""
    n = M.shape[0]
    x = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        y = M @ x
        x = y / np.linalg.norm(y)
        lam = x @ (M @ x)
        if np.linalg.norm(M @ x - lam * x) <= tol:
            break
    return lam, x


def block2_dominant_bisect(data, iters=200):
    """Dominant eigenvalue of an order-3, dim-2 positive tensor by bisection
    on the eigenvector angle x = (cos t, sin t), t in (0, pi/2)."""
    assert data.shape == (2, 2, 2) and (data > 0).all()

    def mismatch(t):
        x = np.array([np.cos(t), np.sin(t)])
        y = tvp_naive(data, x)
        return y[0] * x[1] ** 2 - y[1] * x[0] ** 2

    lo, hi = 1e-9, np.pi / 2 - 1e-9
    assert mismatch(lo) < 0 < mismatch(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mismatch(mid) < 0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    x = np.array([np.cos(t), np.sin(t)])
    y = tvp_naive(data, x)
    return y[0] / x[0] ** 2


def fd_jacobian(f, x, h=None):
    """Central-difference Jacobian of f at x: column j is
    (f(x + h e_j) - f(x - h e_j)) / (2h).

    Default step is 1e-6 * max(1, ||x||_inf), the double-precision sweet
    spot for central differences.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.abs(x).max()) if x.size else 1.0)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)


def essential_nonnegativity_violation_naive(data):
    """First off-diagonal multi-index (1-based) of a negative entry, found by
    filtering np.argwhere over a full n^m mask."""
    for idx in np.argwhere(data < 0):
        if not (idx == idx[0]).all():
            return tuple(int(i) + 1 for i in idx)
    return None


def weak_irreducibility_naive(data):
    """Strong connectivity of the pattern digraph (i -> j when a nonzero
    entry with first index i carries j among its trailing indices), from a
    full n^m mask and the transitive closure of the adjacency."""
    m, n = data.ndim, data.shape[0]
    nz = data != 0
    adj = np.zeros((n, n), dtype=bool)
    for k in range(1, m):
        axes = tuple(ax for ax in range(1, m) if ax != k)
        adj |= nz.any(axis=axes) if axes else nz
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    return bool(reach.all())
