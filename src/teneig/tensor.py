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

    def tvp_and_jacobian(self, x):
        """(T x^{m-1}, its n-by-n Jacobian in x) from views of the data.

        The chain P_0 = T, P_j = P_{j-1} @ x ends in y = P_{m-1}.  The
        derivative in trailing mode k+1 contracts P_{m-1-k}'s k-1 middle
        modes, flattened into one, with the (k-1)-fold outer power of x:
        k = 1 is P_{m-2} itself and k = m-1 is a second pass over the data.
        Every trailing mode counts, so T need not be semi-symmetric.
        """
        x = _check_vector(self, x)
        m, n = self.order, self.dim
        P = [self.data]
        for _ in range(m - 1):
            P.append(P[-1] @ x)  # matmul contracts the last axis
        J = np.array(P[m - 2])
        xk = np.ones(1)
        for k in range(2, m):
            xk = np.multiply.outer(xk, x).reshape(-1)
            J += xk @ P[m - 1 - k].reshape(n, n ** (k - 1), n)
        return P[m - 1], J

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


# The input scans read T[i0:i1], a block of slices by first index, at a time:
# as many slices as fit this many entries, and at least one.
SCAN_BLOCK_ENTRIES = 1 << 16


def _slice_blocks(T):
    rows = max(1, SCAN_BLOCK_ENTRIES // T.dim ** (T.order - 1))
    return [(i, min(i + rows, T.dim)) for i in range(0, T.dim, rows)]


def essential_nonnegativity_violation(T):
    """First off-diagonal multi-index (1-based) with a negative entry, or None.

    Scans a block of slices at a time, so its mask holds at most
    max(n^{m-1}, SCAN_BLOCK_ENTRIES) entries.  The one diagonal entry of
    slice T[i], (i, ..., i), sits at flat offset i * (1 + n + ... + n^{m-2})
    in it.
    """
    m, n = T.order, T.dim
    size = n ** (m - 1)
    step = sum(n**k for k in range(m - 1))
    for i0, i1 in _slice_blocks(T):
        neg = T.data[i0:i1].reshape(i1 - i0, size) < 0
        r = np.arange(i1 - i0)
        neg[r, (i0 + r) * step] = False
        if neg.any():
            first = i0 * size + int(neg.argmax())  # argmax: first True in C order
            return tuple(int(k) + 1 for k in np.unravel_index(first, T.data.shape))
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

    Equals (m-1) * (semi_symmetrize(T) contracted with x^{m-2}) without
    materializing the semi-symmetric tensor; see Tensor.tvp_and_jacobian.
    """
    return T.tvp_and_jacobian(x)[1]


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


def shift_alpha(A, check=True):
    """The diagonal shift alpha = max_i |a_{i...i}| + 1 of both solvers.

    Scans A first and raises EssentialNonnegativityError on a negative
    off-diagonal entry, so (A + eps) + alpha*I is nonnegative for eps >= 0.
    check=False skips the scan, for a caller that has run
    require_essentially_nonnegative(A) itself.
    """
    if check:
        require_essentially_nonnegative(A)
    return float(np.abs(diagonal(A)).max()) + 1.0


def alpha_shift(A, eps=0.0):
    """The tensor both solvers iterate on, built in one array.

    Returns (alpha, T) with alpha = shift_alpha(A) and
    T = (A + eps) + alpha * I, equal bit for bit to
    ``add_identity(perturb(A, eps), alpha)`` for eps > 0.  T is nonnegative
    for essentially nonnegative A, and positive when eps > 0.  The homotopy
    solver uses ShiftedTensor instead, which stores no copy of A.
    """
    alpha = shift_alpha(A)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    # A + 0.0 would turn -0.0 entries into +0.0, so copy when eps == 0.
    data = A.data + eps if eps else np.array(A.data)
    data[_diag_index(A.order, A.dim)] += alpha
    return alpha, Tensor(data)


@dataclass(frozen=True, eq=False)
class ShiftedTensor:
    """T = (A + eps) + alpha*I as the input A plus closed-form terms.

    Holds no n^m array but A.  alpha*I adds alpha*x^{[m-1]} to T x^{m-1} and
    the constant tensor eps adds eps*(1.x)^{m-1} to every component.
    """

    A: Tensor
    alpha: float
    eps: float = 0.0

    @property
    def order(self):
        return self.A.order

    @property
    def dim(self):
        return self.A.dim

    def tvp_and_jacobian(self, x):
        """(T x^{m-1}, its Jacobian in x): A's kernel plus the closed-form terms."""
        x = _check_vector(self, x)
        m = self.order
        y, J = self.A.tvp_and_jacobian(x)
        y += self.alpha * x ** (m - 1)
        J[np.diag_indices(self.dim)] += self.alpha * (m - 1) * x ** (m - 2)
        if self.eps:
            s = x.sum()
            y += self.eps * s ** (m - 1)
            J += self.eps * (m - 1) * s ** (m - 2)
        return y, J


def perturb(A, eps):
    """Add eps > 0 to every entry; a nonnegative tensor becomes positive."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Tensor(A.data + eps)


@dataclass(frozen=True, eq=False)
class RankOne:
    """The order-m tensor with entries c_{i1} * b_{i2} * ... * b_{im}, never stored.

    Its contraction is (b.x)^{m-1} c and its Jacobian (m-1)(b.x)^{m-2} c b^T.
    """

    c: np.ndarray
    b: np.ndarray
    order: int

    @property
    def dim(self):
        return self.b.shape[0]

    def tvp_and_jacobian(self, x):
        x = _check_vector(self, x)
        m = self.order
        s = self.b @ x
        return s ** (m - 1) * self.c, (m - 1) * s ** (m - 2) * np.outer(self.c, self.b)


def start_system(a, b, order):
    """The positive rank-one start tensor a^{[m-1]} (x) b (x) ... (x) b as a RankOne."""
    a, b = _positive_pair(a, b)
    if order < 2:
        raise ValueError("order must be at least 2")
    return RankOne(a ** (order - 1), b, order)


def rank_one_start(a, b, order):
    """start_system(a, b, order) stored densely: entries a_{i1}^{m-1} * b_{i2} * ... * b_{im}."""
    S = start_system(a, b, order)
    out = S.c
    for _ in range(order - 1):
        out = np.multiply.outer(out, S.b)
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
    """Stacked residual (T x^{m-1} - lam * x^{[m-1]}; x.x - 1) of length n+1.

    T is any operator with ``order`` and ``tvp_and_jacobian``: a Tensor, a
    ShiftedTensor or a RankOne.
    """
    x = _check_vector(T, x)
    r = T.tvp_and_jacobian(x)[0] - lam * x ** (T.order - 1)
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
    # Row i of the adjacency comes from slice A[i] alone, so each block of
    # slices gives its rows through a mask of the block alone.
    adj = np.zeros((n, n), dtype=bool)
    for i0, i1 in _slice_blocks(A):
        nz = A.data[i0:i1] != 0
        for k in range(1, m):
            axes = tuple(ax for ax in range(1, m) if ax != k)
            adj[i0:i1] |= nz.any(axis=axes) if axes else nz
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
