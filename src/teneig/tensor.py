"""Dense tensor storage and the multilinear operations behind the eigenproblem.

An order-m, dimension-n tensor is stored as a C-ordered float array of shape
(n,)*m, so the flat entry layout is lexicographic with the first index slowest.
Tensors are frozen after construction; no operation changes one, and the
two kernel passes write only into the arrays their caller hands them.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

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
    """Dense order-m, dimension-n real tensor with finite entries.

    Tensor(data) copies data, so the caller's array stays writeable and is
    never shared.  The library's own builders (load_tensor, loads_tensor,
    random_instance and the demos, add_identity, perturb, rank_one_start)
    hand over the array they made through Tensor._adopt, so a tensor they
    build holds one n^m array at its peak, not two.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(np.array(self.data, dtype=float, order="C")))

    @classmethod
    def _adopt(cls, data):
        """A Tensor on data itself, a float64 C-ordered array that nothing
        else references: checked as the constructor checks its copy, then
        made read-only in place."""
        T = object.__new__(cls)
        object.__setattr__(T, "data", _frozen(data))
        return T

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

    def tvp(self, x, P=None):
        """T x^{m-1}, one read of the data (the y-pass).

        The chain P_0 = T, P_j = P_{j-1} @ x ends in P_{m-1}.  P, an n-by-n
        array if given, receives P_{m-2}: the Jacobian's term in trailing
        mode 2, which jacobian_pass completes.
        """
        x = _check_vector(self, x)
        y = np.empty(self.dim)
        _by_blocks(self, _tvp_rows, x, y, P)
        return y

    def jacobian_pass(self, x, J):
        """Add the Jacobian's terms in trailing modes 3..m to J, which holds
        tvp's P, and return J: one more read of the data (the J-pass).

        The term in mode k contracts every other trailing mode with x.
        Contracting mode 2 first, Q = x x_2 T, leaves an order-(m-1) tensor
        with 1/n of the entries whose whole Jacobian is the sum of those
        terms: its own mode-2 term, the end of its chain, plus the same
        split of x x_2 Q, down to order 2, where Q is its Jacobian.  Every
        trailing mode counts, so T need not be semi-symmetric.
        """
        _by_blocks(self, _jacobian_rows, _check_vector(self, x), J)
        return J


def _frozen(data):
    """data, a float64 C-ordered array, checked as a tensor's (order >= 2,
    equal modes, n >= 1, finite entries) and made read-only.  Finiteness is
    read SCAN_BLOCK_ENTRIES flat entries at a time: one block's mask, not
    n^m bools."""
    if data.ndim < 2:
        raise ValueError("tensor order must be at least 2")
    n = data.shape[0]
    if any(s != n for s in data.shape):
        raise ValueError("all modes must share one dimension, got %s" % (data.shape,))
    if n == 0:
        raise ValueError("tensor dimension must be at least 1")
    flat = data.reshape(-1)
    for i in range(0, flat.size, SCAN_BLOCK_ENTRIES):
        if not np.isfinite(flat[i : i + SCAN_BLOCK_ENTRIES]).all():
            raise ValueError("tensor entries must be finite")
    data.flags.writeable = False
    return data


def _diag_index(order, dim):
    return (np.arange(dim),) * order


def add_identity(T, c):
    """T + c * unit tensor: add c to every diagonal entry."""
    data = np.array(T.data)
    data[_diag_index(T.order, T.dim)] += c
    return Tensor._adopt(data)


# weak_irreducibility_check and the kernel read T[i0:i1], a block of slices
# by first index, at a time; these are their block budgets in entries.
SCAN_BLOCK_ENTRIES = 1 << 16
KERNEL_BLOCK_ENTRIES = 1 << 20


def _slice_blocks(T, budget):
    """Near-equal row ranges (i0, i1) covering 0..n-1, as few as keep each
    block T[i0:i1] within budget entries; a block holds at least one slice.
    The cut depends on (m, n, budget) alone."""
    n = T.dim
    rows = max(1, budget // n ** (T.order - 1))
    count = -(-n // rows)
    return [(n * j // count, n * (j + 1) // count) for j in range(count)]


def _tvp_rows(block, x, y, P=None):
    """Write the rows of T x^{m-1} that block = T[i0:i1] owns into y, and
    P_{m-2}'s into P if given (Tensor.tvp).

    Each step contracts the last axis of the flat 2-D view P_j.reshape(-1, n):
    one gemv over the whole block, where matmul on the stacked n-by-n
    matrices would make one per matrix.
    """
    Pj, n = block, x.shape[0]
    for _ in range(block.ndim - 2):
        Pj = Pj.reshape(-1, n) @ x
    Pj = Pj.reshape(-1, n)
    if P is not None:
        P[...] = Pj
    np.matmul(Pj, x, out=y)


def _jacobian_rows(block, x, J):
    """Add the rows that block = T[i0:i1] owns of the Jacobian's terms in
    trailing modes 3..m to J (Tensor.jacobian_pass).  Each step contracts x
    into Q's mode 2, one gemv per slice, and adds the new Q's mode-2 term:
    the end of its chain, p-2 steps over its flat view for Q of order p."""
    rows, n = block.shape[0], x.shape[0]
    Q = block
    for p in range(block.ndim - 1, 1, -1):
        Q = np.matmul(x, Q.reshape(rows, n, -1))
        C = Q
        for _ in range(p - 2):
            C = C.reshape(-1, n) @ x
        J += C.reshape(rows, n)


def _by_blocks(T, rows, x, *out):
    """rows(block, x, *out) over the kernel blocks, each block T[i0:i1]
    given the rows i0:i1 of every output array (None stays None).

    Row i of every output depends on slice T[i] alone, so blocks are
    independent and each writes its own rows in place: the result does not
    depend on how many threads ran them.  A tensor of one block runs
    inline.  x is the caller's checked vector (_check_vector).
    """
    if T.data.size <= KERNEL_BLOCK_ENTRIES:  # then _slice_blocks gives one block
        rows(T.data, x, *out)
        return
    pool = _pool()
    jobs = [
        pool.submit(rows, T.data[i0:i1], x, *(o if o is None else o[i0:i1] for o in out))
        for i0, i1 in _slice_blocks(T, KERNEL_BLOCK_ENTRIES)
    ]
    # Every block ends before a worker's error is raised: none writes into
    # the outputs after the caller has them back.
    for err in [job.exception() for job in jobs]:
        if err is not None:
            raise err


_POOL_LOCK = threading.Lock()
_POOL = None  # (pid that made it, executor)


def _pool():
    """The kernel's thread pool, one worker per CPU this process may run on.

    Made on the first multi-block call, and made again in a forked child,
    which inherits the executor but none of its threads.
    """
    global _POOL
    pid = os.getpid()
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != pid:
            from concurrent.futures import ThreadPoolExecutor

            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no sched_getaffinity on this platform
                workers = os.cpu_count() or 1
            _POOL = (pid, ThreadPoolExecutor(workers, thread_name_prefix="teneig"))
        return _POOL[1]


def require_essentially_nonnegative(T):
    """The one input scan of both solvers: (alpha, complete), or a raise.

    The diagonal entries sit at flat offsets i*D, D = 1 + n + ... + n^{m-1},
    so alpha = max_i |a_{i...i}| + 1, the diagonal shift that makes
    (A + eps) + alpha*I nonnegative for eps >= 0, reads the strided view
    entries[::D].  And n^m - 1 = (n-1)*D, so the flat data less its last
    entry, as n-1 rows of D, holds one diagonal entry at the head of each
    row: dropping column 0 leaves a strided view of exactly the off-diagonal
    entries, in C order.  The scan takes its row minima, n-1 floats and no
    mask; only a row with a negative minimum is masked, to raise
    EssentialNonnegativityError at its first negative entry.

    complete is True when every off-diagonal entry is positive (always for
    n == 1): then weak_irreducibility_check's digraph has every edge, so T
    is weakly irreducible without a pattern scan.
    """
    m, n = T.order, T.dim
    D = sum(n**k for k in range(m))
    alpha = float(np.maximum.reduce(np.abs(T.entries[::D]))) + 1.0
    if n == 1:
        return alpha, True
    off = T.entries[:-1].reshape(n - 1, D)[:, 1:]
    mins = np.minimum.reduce(off, axis=1)
    lowest = np.minimum.reduce(mins)
    if lowest < 0:
        row = int((mins < 0).argmax())  # argmax: first True
        first = row * D + 1 + int((off[row] < 0).argmax())
        raise EssentialNonnegativityError(np.add(np.unravel_index(first, T.data.shape), 1))
    return alpha, bool(lowest > 0)


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
    return T.tvp(x)


def tvp_jacobian(T, x):
    """Jacobian of x -> tvp(T, x), an n-by-n matrix: T's y-pass, then its J-pass."""
    J = np.empty((T.dim, T.dim))
    T.tvp(x, J)
    return T.jacobian_pass(x, J)


@dataclass(frozen=True, eq=False)
class ShiftedTensor:
    """T = (A + eps) + alpha*I as a record, no n^m array but A: alpha*I adds
    alpha*x^{[m-1]} to T x^{m-1} and the constant tensor eps adds
    eps*(1.x)^{m-1} to every component (_add_shift_terms)."""

    A: Tensor
    alpha: float
    eps: float = 0.0


def _add_shift_terms(y, x, xp, m, alpha, eps):
    """Turn y = A x^{m-1} into T x^{m-1}, T = (A + eps) + alpha*I, in place:
    add alpha*xp, with xp = x^{[m-1]}, and eps*(1.x)^{m-1}.  The one
    definition of both terms, for the homotopy's passes and pta_solve's
    sweep.  np.add.reduce(x) is x.sum() without its Python wrapper."""
    y += alpha * xp
    if eps:
        y += eps * float(np.add.reduce(x)) ** (m - 1)


def perturb(A, eps):
    """Add eps > 0 to every entry; a nonnegative tensor becomes positive."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Tensor._adopt(A.data + eps)


@dataclass(frozen=True, eq=False)
class RankOne:
    """The order-m tensor with entries c_{i1} * b_{i2} * ... * b_{im} as a
    record, never stored: its contraction is (b.x)^{m-1} c."""

    c: np.ndarray
    b: np.ndarray
    order: int


def start_system(a, b, order):
    """The positive rank-one start tensor a^{[m-1]} (x) b (x) ... (x) b as a RankOne."""
    a, b = _positive_pair(a, b, order)
    return RankOne(a ** (order - 1), b, order)


def rank_one_start(a, b, order):
    """start_system(a, b, order) stored densely: entries a_{i1}^{m-1} * b_{i2} * ... * b_{im}."""
    S = start_system(a, b, order)
    out = S.c
    for _ in range(order - 1):
        out = np.multiply.outer(out, S.b)
    return Tensor._adopt(out)


def start_pair(a, b, order):
    """Perron pair of rank_one_start(a, b, order): ((a.b)^{m-1}, a/||a||_2)."""
    a, b = _positive_pair(a, b, order)
    return EigenPair(float(a @ b) ** (order - 1), a)


def _positive_pair(a, b, order):
    """a and b as float vectors for an order-m start, checked: positive, and
    the start's a^{[m-1]}, (a.b)^{m-1}, a.a and x^{[m-1]}, x = a/||a||, finite
    and not below the smallest normal float, so a and b are finite and the
    start neither overflows nor underflows."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be vectors of equal length")
    if order < 2:
        raise ValueError("order must be at least 2")
    with np.errstate(all="ignore"):
        lo, aa = np.minimum.reduce(a), a @ a
        powers = np.array([lo, np.maximum.reduce(a), a @ b, lo / np.sqrt(aa)]) ** (order - 1)
    tiny, terms = np.finfo(float).tiny, (*powers.tolist(), aa)
    if not (lo > 0.0 and np.minimum.reduce(b) > 0.0 and all(tiny <= t < np.inf for t in terms)):
        raise ValueError(
            "a and b must be positive, with a^{[m-1]}, (a.b)^{m-1}, a.a and (a/||a||)^{[m-1]}"
            " finite and not below the smallest normal float"
        )
    return a, b


def eigen_residual(T, lam, x):
    """Stacked residual (T x^{m-1} - lam * x^{[m-1]}; x.x - 1) of length n+1
    for a Tensor T: one pass over its data, with no Jacobian."""
    x = _check_vector(T, x)
    r = T.tvp(x) - lam * x ** (T.order - 1)
    return np.concatenate([r, [x @ x - 1.0]])


def ratio_bracket(y, xp):
    """(min_i r_i, max_i r_i), r = y / xp: for y = A x^{m-1} and xp = x^{[m-1]},
    the Collatz-Wielandt bracket on A's dominant eigenvalue (Yang and Yang,
    SIAM J. Matrix Anal. Appl. 31, 2010); NaN unless every xp_i > 0."""
    with np.errstate(over="ignore"):
        r = y / xp if np.minimum.reduce(xp) > 0.0 else np.full(1, np.nan)
    return float(np.minimum.reduce(r)), float(np.maximum.reduce(r))


def weak_irreducibility_check(A):
    """Strong connectivity of the digraph that majorizes the sparsity pattern.

    There is an edge i -> j (i != j) whenever some nonzero entry with first
    index i carries j among its trailing indices.  A nonnegative irreducible
    tensor always passes; a failed check certifies reducibility.
    """
    m, n = A.order, A.dim
    # Row i of the adjacency comes from slice A[i] alone, so each block of
    # slices gives its rows through a mask of the block alone.
    adj = np.zeros((n, n), dtype=bool)
    for i0, i1 in _slice_blocks(A, SCAN_BLOCK_ENTRIES):
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
