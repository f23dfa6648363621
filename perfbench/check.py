"""Answer check that does not trust the solver: Collatz-Wielandt brackets.

For an essentially nonnegative, irreducible tensor A of order m and any
strictly positive vector x, the ratios

    r_i = (A x^{m-1})_i / x_i^{m-1}

bracket the dominant eigenvalue: min_i r_i <= lambda(A) <= max_i r_i
(Ng-Qi-Zhou 2009, Yang-Yang 2010; a diagonal shift moves the ratios and
lambda alike, so the bracket holds for a negative diagonal too).  The
contraction below is this file's own, so a wrong kernel in the solver
cannot certify its own answer.

An answer (lam, x) passes when x > 0 and the bracket, widened to include lam,
is no wider than RTOL * |lam|.  That certifies |lam - lambda(A)| <= RTOL*|lam|.

Run ``python3 perfbench/check.py`` from the repository root for the self-test.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-6

# random_instance(3, 10, d=20, seed=1) answered by the homotopy solver at the
# commit that introduced this benchmark: status "converged", but lambda is
# negative while the true value is +4.9e-19, and x is the unmoved start vector.
D20_WRONG_LAMBDA = -4.218847493575595e-15


def contract(data, x):
    """A x^{m-1}: contract every trailing mode of the dense array with x."""
    y = data
    for _ in range(data.ndim - 1):
        y = y @ x
    return y


def bracket(data, x):
    """(min_i r_i, max_i r_i) for positive x, or None when x has a component <= 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (data.shape[0],) or not (x > 0).all():
        return None
    r = contract(data, x) / x ** (data.ndim - 1)
    return float(r.min()), float(r.max())


def certified(lo, hi, lam):
    return max(hi, lam) - min(lo, lam) <= RTOL * abs(lam)


def check_irreducible(data, lam, x):
    """None when (lam, x) is certified on ``data``, else the reason it is not."""
    if not np.isfinite(lam):
        return "eigenvalue is not finite"
    b = bracket(data, x)
    if b is None:
        return "eigenvector is not strictly positive"
    if not certified(*b, lam):
        return "lambda %.9g outside bracket [%.9g, %.9g] widened by %.0e" % (lam, *b, RTOL)
    return None


def block_references(data, blocks, max_sweeps=10000):
    """Certified bracket of every diagonal block of a block-diagonal tensor.

    Each block's Perron vector comes from this file's own power iteration on
    the shifted block; the bracket of that vector is the reference.
    """
    refs = []
    for lo_i, hi_i in blocks:
        B = data[(slice(lo_i, hi_i),) * data.ndim]
        m, n = B.ndim, B.shape[0]
        shift = float(np.abs(B[(np.arange(n),) * m]).max()) + 1.0
        x = np.ones(n)
        for _ in range(max_sweeps):
            y = contract(B, x) + shift * x ** (m - 1)
            x = y ** (1.0 / (m - 1))
            x /= np.linalg.norm(x)
            lo, hi = bracket(B, x)
            if hi - lo <= 0.01 * RTOL * abs(hi):
                break
        else:
            raise RuntimeError("reference power iteration did not certify block %s" % ((lo_i, hi_i),))
        refs.append((lo, hi))
    return refs


def check_reducible(data, blocks, refs, lam, x):
    """Check (lam, x) against the largest eigenvalue among irreducible blocks.

    ``refs`` are the blocks' certified brackets.  The dominant block must be
    certified apart from the others; then the returned x, restricted to it,
    must certify lam there, and lam must sit in the block's reference bracket.
    """
    if not np.isfinite(lam):
        return "eigenvalue is not finite"
    k = max(range(len(refs)), key=lambda i: refs[i][0])
    if any(refs[i][1] >= refs[k][0] for i in range(len(refs)) if i != k):
        return "reference blocks are not separated"
    lo_i, hi_i = blocks[k]
    b = bracket(data[(slice(lo_i, hi_i),) * data.ndim], np.asarray(x)[lo_i:hi_i])
    if b is None:
        return "eigenvector is not strictly positive on the dominant block"
    if not certified(*b, lam):
        return "lambda %.9g outside dominant-block bracket [%.9g, %.9g]" % (lam, *b)
    if not certified(*refs[k], lam):
        return "lambda %.9g outside reference bracket [%.9g, %.9g]" % (lam, *refs[k])
    return None


def self_test():
    """Failures of the checker on known answers, as a list of strings."""
    from teneig import random_instance, solve_dominant
    from teneig.instances import dense_demo, sparse_ring_demo

    problems = []
    demo = dense_demo()
    rep = solve_dominant(demo)
    if round(rep.eigen.lam, 4) != 36.2757:
        problems.append("dense_demo solved to %.6f, expected 36.2757" % rep.eigen.lam)
    if check_irreducible(demo.data, rep.eigen.lam, rep.eigen.x) is not None:
        problems.append("dense_demo answer rejected")
    if check_irreducible(demo.data, rep.eigen.lam * (1 + 10 * RTOL), rep.eigen.x) is None:
        problems.append("dense_demo answer off by 10*RTOL accepted")

    ring = sparse_ring_demo().data
    x_ring = np.array([1.0, 1.0, np.sqrt(2.0)]) / 2.0
    if check_irreducible(ring, 1.0, x_ring) is not None:
        problems.append("exact ring pair rejected")

    d20 = random_instance(3, 10, d=20, seed=1).data
    if check_irreducible(d20, D20_WRONG_LAMBDA, np.full(10, 10**-0.5)) is None:
        problems.append("wrong d=20 answer accepted")

    blocks = ((0, 3), (3, 6))
    bd = np.zeros((6, 6, 6))
    bd[:3, :3, :3] = 1.0
    bd[3:, 3:, 3:] = 2.0
    refs = block_references(bd, blocks)
    x_bd = np.array([0, 0, 0, 1, 1, 1]) / np.sqrt(3.0)
    if check_reducible(bd, blocks, refs, 18.0, x_bd) is not None:
        problems.append("block-diagonal pair (18, e_2) rejected")
    if check_reducible(bd, blocks, refs, 9.0, x_bd) is None:
        problems.append("block-diagonal answer of the smaller block accepted")
    return problems


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    found = self_test()
    for p in found:
        print("FAIL", p)
    print("checker self-test: %s" % ("ok" if not found else "%d failure(s)" % len(found)))
    sys.exit(1 if found else 0)
