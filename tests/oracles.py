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


def relative_bracket(data, lam, x):
    """Width of the Collatz-Wielandt bracket of data at x > 0, the range of
    (data x^{m-1})_i / x_i^{m-1}, widened to include lam, over |lam|."""
    r = tvp_naive(data, x) / x ** (data.ndim - 1)
    return (max(r.max(), lam) - min(r.min(), lam)) / abs(lam)


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


def unit_tensor_naive(order, dim):
    """Order-m, dimension-n array with ones where all indices coincide."""
    data = np.zeros((dim,) * order)
    for i in range(dim):
        data[(i,) * order] = 1.0
    return data


def alpha_shift_dense(data, eps=0.0):
    """(alpha, (A + eps) + alpha*I) with the shifted tensor stored densely,
    alpha = max_i |a_{i...i}| + 1.  Copies data, also when eps == 0."""
    m, n = data.ndim, data.shape[0]
    diag = (np.arange(n),) * m
    alpha = float(np.abs(data[diag]).max()) + 1.0
    # data + 0.0 would turn -0.0 entries into +0.0, so copy when eps == 0.
    T = data + eps if eps else np.array(data)
    T[diag] += alpha
    return alpha, T


def pta_dense(data, eps, eps2, max_steps):
    """The power-type iteration on a dense copy of T = (A + eps) + alpha*I,
    from the uniform unit vector, with the ratio-bracket midpoint and the
    stacked-residual stop.  Returns (status, sweeps, lambda_shifted, alpha, x)."""
    alpha, T = alpha_shift_dense(data, eps)
    m, n = data.ndim, data.shape[0]
    x = np.ones(n) / np.sqrt(n)
    sweeps = 0
    while True:
        y = T
        for _ in range(m - 1):
            y = y @ x
        xp = x ** (m - 1)
        ratios = y / xp
        lam = 0.5 * (ratios.max() + ratios.min())
        r = y - lam * xp
        if np.sqrt(r @ r + (x @ x - 1.0) ** 2) <= eps2:
            return "converged", sweeps, float(lam), alpha, x
        if sweeps >= max_steps:
            return "step_limit", sweeps, float(lam), alpha, x
        x = y ** (1.0 / (m - 1))
        x /= np.linalg.norm(x)
        sweeps += 1


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


def solve_conditioned_reference(M, rhs, rtol):
    """np.linalg.solve's y, or None where the conditioning check as first
    written in ``linalg.solve`` rejects the system: LAPACK's singular error,
    a non-finite y, or ||M||_inf ||y||_inf > ||rhs||_inf / rtol, each norm
    through the array methods."""
    try:
        y = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(y).all():
        return None
    if np.abs(M).sum(axis=1).max() * np.abs(y).max() > np.abs(rhs).max() / rtol:
        return None
    return y


def essential_nonnegativity_violation_naive(data):
    """First off-diagonal multi-index (1-based) of a negative entry, found by
    filtering np.argwhere over a full n^m mask."""
    for idx in np.argwhere(data < 0):
        if not (idx == idx[0]).all():
            return tuple(int(i) + 1 for i in idx)
    return None


def off_diagonal_positive_naive(data):
    """Whether every entry whose indices do not all coincide is positive,
    from a full n^m mask."""
    n = data.shape[0]
    off = np.ones(data.shape, dtype=bool)
    off[(np.arange(n),) * data.ndim] = False
    return bool((data[off] > 0).all())


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


def dumps_tensor_loop(T, fmt="dense"):
    """The text format written one value at a time with format(v, ".17g")."""
    out = ["order %d" % T.order, "dim %d" % T.dim, "format %s" % fmt]
    if fmt == "dense":
        flat = T.entries
        for pos in range(0, flat.size, 6):
            out.append(" ".join(format(v, ".17g") for v in flat[pos : pos + 6]))
    else:
        for idx in np.argwhere(T.data != 0):
            value = T.data[tuple(idx)]
            out.append(" ".join(str(int(i) + 1) for i in idx) + " " + format(value, ".17g"))
    return "\n".join(out) + "\n"


def loads_dense_loop(text):
    """The data array of a dense tensor file, parsed line by line with
    float() on every token; raises TensorFileError as the library's reader
    does, with the same message and line."""
    from teneig.tensorfile import TensorFileError

    def meaningful_lines():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                yield lineno, body

    lines = meaningful_lines()

    def header(key, choices=None):
        try:
            lineno, body = next(lines)
        except StopIteration:
            raise TensorFileError("missing '%s' header" % key) from None
        parts = body.split()
        if choices is not None:
            if len(parts) != 2 or parts[0] != key or parts[1] not in choices:
                raise TensorFileError("expected 'format dense' or 'format coo', got %r" % body, lineno)
            return parts[1]
        if len(parts) != 2 or parts[0] != key:
            raise TensorFileError("expected '%s <integer>', got %r" % (key, body), lineno)
        try:
            return int(parts[1])
        except ValueError:
            raise TensorFileError("expected an integer for '%s', got %r" % (key, parts[1]), lineno) from None

    order = header("order")
    dim = header("dim")
    if order < 2 or dim < 1:
        raise TensorFileError("need order >= 2 and dim >= 1, got order %d, dim %d" % (order, dim))
    if header("format", ("dense", "coo")) != "dense":
        raise NotImplementedError("coo payload")
    expected = dim**order
    values = []
    for lineno, body in lines:
        for tok in body.split():
            try:
                value = float(tok)
            except ValueError:
                raise TensorFileError("not a number: %r" % tok, lineno) from None
            if not np.isfinite(value):
                raise TensorFileError("entries must be finite, got %r" % tok, lineno)
            values.append(value)
        if len(values) > expected:
            raise TensorFileError(
                "too many entries: expected %d for order %d, dim %d" % (expected, order, dim), lineno
            )
    if len(values) != expected:
        raise TensorFileError("dense payload has %d entries, expected %d" % (len(values), expected))
    return np.asarray(values).reshape((dim,) * order)
