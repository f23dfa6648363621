"""Dense tensor storage and the multilinear operations behind the eigenproblem.

An order-m, dimension-n tensor is stored as a C-ordered float array of shape
(n,)*m, so the flat entry layout is lexicographic with the first index slowest.
All operations are pure; tensors are frozen after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import factorial

import numpy as np


class EssentialNonnegativityError(ValueError):
    """A tensor has a negative entry off the diagonal.

    ``index`` holds the offending multi-index, 1-based.
    """

    def __init__(self, index):
        self.index = tuple(int(i) for i in index)
        super().__init__(
            "negative off-diagonal entry at index %s (1-based)" % (self.index,)
        )


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense order-m, dimension-n real tensor with finite entries."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.array(self.data, dtype=float, order="C")
        if data.ndim < 2:
            raise ValueError("tensor order must be at least 2")
        n = data.shape[0]
        if any(s != n for s in data.shape):
            raise ValueError("all modes must share one dimension, got %s" % (data.shape,))
        if not np.isfinite(data).all():
            raise ValueError("tensor entries must be finite")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def order(self):
        return self.data.ndim

    @property
    def dim(self):
        return self.data.shape[0]

    @property
    def entries(self):
        """Flat lexicographic view of the n**m entries."""
        return self.data.reshape(-1)

    def __repr__(self):
        return "Tensor(order=%d, dim=%d)" % (self.order, self.dim)

    @classmethod
    def zeros(cls, order, dim):
        return cls(np.zeros((dim,) * order))

    @classmethod
    def from_entries(cls, entries, order, dim):
        """Build from a flat lexicographic entry list of length dim**order."""
        flat = np.asarray(entries, dtype=float).reshape(-1)
        if flat.size != dim**order:
            raise ValueError(
                "expected %d entries for order %d, dim %d, got %d"
                % (dim**order, order, dim, flat.size)
            )
        return cls(flat.reshape((dim,) * order))


def unit_tensor(order, dim):
    """Diagonal tensor with ones exactly where all indices coincide."""
    data = np.zeros((dim,) * order)
    data[_diag_index(order, dim)] = 1.0
    return Tensor(data)


def _diag_index(order, dim):
    return (np.arange(dim),) * order


def diagonal(T):
    """The n entries whose indices all coincide."""
    return T.data[_diag_index(T.order, T.dim)]


def add_identity(T, c):
    """T + c * unit tensor: add c to every diagonal entry."""
    data = np.array(T.data)
    data[_diag_index(T.order, T.dim)] += c
    return Tensor(data)


def essential_nonnegativity_violation(T):
    """First off-diagonal multi-index (1-based) with a negative entry, or None."""
    for idx in np.argwhere(T.data < 0):
        if not (idx == idx[0]).all():
            return tuple(int(i) + 1 for i in idx)
    return None


def is_essentially_nonnegative(T):
    """True iff every entry with non-identical indices is >= 0."""
    return essential_nonnegativity_violation(T) is None


def require_essentially_nonnegative(T):
    idx = essential_nonnegativity_violation(T)
    if idx is not None:
        raise EssentialNonnegativityError(idx)


def _check_vector(T, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (T.dim,):
        raise ValueError("vector has shape %s, tensor dimension is %d" % (x.shape, T.dim))
    return x


def tvp(T, x):
    """Tensor-vector product T x^{m-1}.

    Component i is the sum over all trailing multi-indices (i2,...,im) of
    t[i,i2,...,im] * x[i2] * ... * x[im].
    """
    x = _check_vector(T, x)
    out = T.data
    for _ in range(T.order - 1):
        out = out @ x  # matmul contracts the last axis
    return out


def power_vector(x, p):
    """Componentwise power (x_i ** p); fractional p needs nonnegative x."""
    x = np.asarray(x, dtype=float)
    if p != int(p) and (x < 0).any():
        raise ValueError("fractional power of a negative component")
    return x**p


def tvp_jacobian(T, x):
    """Jacobian of x -> tvp(T, x), an n-by-n matrix.

    Accumulates one contraction per trailing mode, which equals
    (m-1) * (semi_symmetrize(T) contracted with x^{m-2}) without ever
    materializing the semi-symmetric tensor.
    """
    x = _check_vector(T, x)
    m, n = T.order, T.dim
    J = np.zeros((n, n))
    for k in range(1, m):
        M = T.data
        # Contract from the last axis down so surviving axes keep their positions.
        for ax in range(m - 1, 0, -1):
            if ax != k:
                M = np.tensordot(M, x, axes=([ax], [0]))
        J += M
    return J


def semi_symmetrize(T):
    """Average the entries over all permutations of the trailing m-1 modes.

    The result is the unique trailing-symmetric tensor with the same
    x -> tvp(., x) map as T.
    """
    m = T.order
    acc = np.zeros_like(T.data)
    for perm in permutations(range(1, m)):
        acc += np.transpose(T.data, (0, *perm))
    return Tensor(acc / factorial(m - 1))


def alpha_shift(A, eps=0.0):
    """The tensor both solvers iterate on, built in one array.

    Returns (alpha, T) with alpha = max_i |a_{i...i}| + 1 and
    T = (A + eps) + alpha * I, equal bit for bit to
    ``add_identity(perturb(A, eps), alpha)`` for eps > 0.  T is nonnegative
    for essentially nonnegative A, and positive when eps > 0.
    """
    require_essentially_nonnegative(A)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    alpha = float(np.abs(diagonal(A)).max()) + 1.0
    # A + 0.0 would turn -0.0 entries into +0.0, so copy when eps == 0.
    data = A.data + eps if eps else np.array(A.data)
    data[_diag_index(A.order, A.dim)] += alpha
    return alpha, Tensor(data)


def perturb(A, eps):
    """Add eps > 0 to every entry; a nonnegative tensor becomes positive."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Tensor(A.data + eps)


def rank_one_start(a, b, order):
    """Positive rank-one tensor with entries a_{i1}^{m-1} * b_{i2} * ... * b_{im}."""
    a, b = _positive_pair(a, b)
    if order < 2:
        raise ValueError("order must be at least 2")
    out = a ** (order - 1)
    for _ in range(order - 1):
        out = np.multiply.outer(out, b)
    return Tensor(out)


def start_pair(a, b, order):
    """Perron pair of rank_one_start(a, b, order): ((a.b)^{m-1}, a/||a||_2)."""
    a, b = _positive_pair(a, b)
    if order < 2:
        raise ValueError("order must be at least 2")
    lam0 = float(a @ b) ** (order - 1)
    return EigenPair(lam0, a)


def _positive_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be vectors of equal length")
    if (a <= 0).any() or (b <= 0).any():
        raise ValueError("a and b must be strictly positive")
    return a, b


def eigen_residual(T, lam, x):
    """Stacked residual (tvp(T,x) - lam * x^{[m-1]}; x.x - 1) of length n+1."""
    x = _check_vector(T, x)
    r = tvp(T, x) - lam * x ** (T.order - 1)
    return np.concatenate([r, [x @ x - 1.0]])


def weak_irreducibility_check(A):
    """Strong connectivity of the digraph that majorizes the sparsity pattern.

    There is an edge i -> j (i != j) whenever some nonzero entry with first
    index i carries j among its trailing indices.  A nonnegative irreducible
    tensor always passes; a failed check certifies reducibility.
    """
    m, n = A.order, A.dim
    if n == 1:
        return True
    nz = A.data != 0
    adj = np.zeros((n, n), dtype=bool)
    for k in range(1, m):
        axes = tuple(ax for ax in range(1, m) if ax != k)
        adj |= nz.any(axis=axes) if axes else nz
    np.fill_diagonal(adj, False)
    return _all_reachable(adj, 0) and _all_reachable(adj.T, 0)


def _all_reachable(adj, start):
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Real eigenvalue plus unit-2-norm eigenvector."""

    lam: float
    x: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        nrm = np.linalg.norm(x)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ValueError("eigenvector must be finite and nonzero")
        x /= nrm
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "lam", float(self.lam))
