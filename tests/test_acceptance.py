"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import numpy as np
import pytest

from teneig import (
    HomotopyConfig,
    ShiftedTensor,
    Tensor,
    pta_solve,
    solve_dominant,
    start_pair,
    start_system,
    tvp,
)
from teneig.homotopy import _j_pass, _y_pass
from teneig.instances import dense_demo, random_instance, sparse_ring_demo
from teneig.pta import convergence_rate_estimate
from teneig.tensor import add_identity, perturb, rank_one_start

from oracles import (
    block2_dominant_bisect,
    fd_jacobian,
    full_symmetrize,
    matrix_power_iteration,
    semi_symmetrize_naive,
)


def homotopy_residual(T, S, tau, lam, x):
    # T is a dense Tensor, taken as the solver's record with no shift
    n = T.dim
    R = np.empty((2, n + 1))
    _y_pass(ShiftedTensor(T, 0.0), S, tau, lam, x, np.empty((n + 1, n + 1)), R)
    return R[0]


def homotopy_jacobian(T, S, tau, lam, x):
    # the solver's y-pass, then its J-pass, which completes M
    n, T = T.dim, ShiftedTensor(T, 0.0)
    M = np.empty((n + 1, n + 1))
    shared = _y_pass(T, S, tau, lam, x, M, np.empty((2, n + 1)))
    _j_pass(T, S, tau, lam, x, M, shared)
    return M


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print("[acceptance] criterion %d (%s): %s" % (num, label, status))
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def desk_scale_runs():
    """Both solvers on the (3,10) cells: 20 instances at d=3, 10 at d=6."""
    d3, d6 = [], []
    for i in range(20):
        A = random_instance(3, 10, d=3, seed=100 + i)
        d3.append((solve_dominant(A), pta_solve(A)))
    for i in range(10):
        A = random_instance(3, 10, d=6, seed=200 + i)
        d6.append((solve_dominant(A), pta_solve(A)))
    return d3, d6


def test_criterion_1_dense_demo_eigenvalue():
    failures = []
    rep = solve_dominant(dense_demo())
    if rep.status != "converged":
        failures.append("status %s" % rep.status)
    if abs(rep.eigen.lam - 36.2757) > 5e-4:
        failures.append("lambda %.6f" % rep.eigen.lam)
    if rep.residual_norm > 1e-10:
        failures.append("residual %.2e" % rep.residual_norm)
    if rep.iter > 30:
        failures.append("iter %d" % rep.iter)
    if rep.wall_time_s >= 5.0:
        failures.append("time %.2fs" % rep.wall_time_s)
    _verdict(1, "dense 3x3x3 reference eigenvalue", failures)


def test_criterion_2_sparse_demo_eigenpair():
    failures = []
    rep = solve_dominant(sparse_ring_demo())
    if rep.status != "converged":
        failures.append("status %s" % rep.status)
    if abs(rep.eigen.lam - 1.0) > 1e-8:
        failures.append("lambda %.12f" % rep.eigen.lam)
    if rep.eigen.x.min() <= 0.0:
        failures.append("eigenvector not strictly positive")
    if abs(rep.eigen.x @ rep.eigen.x - 1.0) > 1e-10:
        failures.append("eigenvector not unit")
    if rep.residual_norm > 1e-10:
        failures.append("residual %.2e" % rep.residual_norm)
    _verdict(2, "sparse 3x3x3 exact eigenpair", failures)


def test_criterion_3_large_instance_scale():
    failures = []
    A = random_instance(3, 100, d=0, seed=42)
    rep = solve_dominant(A)
    if rep.status != "converged":
        failures.append("status %s" % rep.status)
    if rep.residual_norm > 1e-10:
        failures.append("residual %.2e" % rep.residual_norm)
    if rep.iter > 30:
        failures.append("iter %d" % rep.iter)
    if rep.wall_time_s >= 60.0:
        failures.append("time %.1fs" % rep.wall_time_s)
    n_pow = 100.0**2
    if not 0.3 * n_pow <= rep.eigen.lam <= 0.7 * n_pow:
        failures.append("lambda %.1f outside [0.3, 0.7] * n^(m-1)" % rep.eigen.lam)
    # shrink the constant perturbation so its bias (<= eps * n^(m-1)) stays
    # well below the cross-solver agreement bound
    rep_pta = pta_solve(A, config=HomotopyConfig(eps_perturb=1e-12))
    if rep_pta.status != "converged":
        failures.append("pta status %s" % rep_pta.status)
    if abs(rep_pta.eigen.lam - rep.eigen.lam) > 1e-6:
        failures.append("solver gap %.2e" % abs(rep_pta.eigen.lam - rep.eigen.lam))
    _verdict(3, "(3,100) random instance", failures)


def test_criterion_4_desk_scale_comparison(desk_scale_runs):
    failures = []
    d3, d6 = desk_scale_runs
    if not all(p.status == "converged" for _, p in d3):
        failures.append("a d=3 power run did not converge")
    avg_pta = float(np.mean([p.iter for _, p in d3]))
    if not 100.0 <= avg_pta <= 5000.0:
        failures.append("d=3 power average iterations %.1f" % avg_pta)
    for h, _ in d3:
        if h.status != "converged" or h.iter > 30:
            failures.append("d=3 homotopy status %s iter %d" % (h.status, h.iter))
            break
    for h, p in d6:
        if p.status != "step_limit" or p.iter < 50000:
            failures.append("d=6 power run finished in %d iterations" % p.iter)
            break
    for h, _ in d6:
        if h.status != "converged" or h.residual_norm > 1e-10:
            failures.append("d=6 homotopy status %s residual %.1e" % (h.status, h.residual_norm))
            break
    _verdict(4, "(3,10) desk-scale comparison", failures)


def test_criterion_5_matrix_oracle():
    failures = []
    for i in range(50):
        A = random_instance(2, 5, seed=300 + i)
        rep = solve_dominant(A)
        alpha = float(np.abs(A.data[(np.arange(5),) * 2]).max()) + 1.0
        rho, _ = matrix_power_iteration(A.data + alpha * np.eye(5))
        if rep.status != "converged" or abs(rep.eigen.lam - (rho - alpha)) > 1e-8:
            failures.append(
                "seed %d: solver %.12f vs oracle %.12f" % (300 + i, rep.eigen.lam, rho - alpha)
            )
            break
    hand = solve_dominant(Tensor(np.array([[-1.0, 2.0], [3.0, -2.0]])))
    if abs(hand.eigen.lam - 1.0) > 1e-10:
        failures.append("hand case lambda %.12f" % hand.eigen.lam)
    if np.abs(hand.eigen.x - np.ones(2) / np.sqrt(2.0)).max() > 1e-8:
        failures.append("hand case eigenvector %s" % hand.eigen.x)
    _verdict(5, "matrix oracle, 50 random 5x5", failures)


def test_criterion_6_invariant_suite(accepted_points):
    failures = []
    rng = np.random.default_rng(77)

    # start-pair exactness on its own rank-one tensor
    for _ in range(10):
        a = rng.uniform(0.2, 2.0, size=4)
        b = rng.uniform(0.2, 2.0, size=4)
        S = start_system(a, b, 3)
        pair = start_pair(a, b, 3)
        r = np.linalg.norm(homotopy_residual(rank_one_start(a, b, 3), S, 0.0, pair.lam, pair.x))
        if r > 1e-12 * max(1.0, pair.lam):
            failures.append("start residual %.2e" % r)
            break

    # semi-symmetrization preserves the contraction map
    for m, n in ((3, 4), (4, 3)):
        T = Tensor(rng.uniform(0.0, 1.0, size=(n,) * m))
        Ts = Tensor(semi_symmetrize_naive(T.data))
        for _ in range(5):
            x = rng.uniform(0.1, 1.5, size=n)
            y = tvp(T, x)
            if np.linalg.norm(tvp(Ts, x) - y) > 1e-12 * np.linalg.norm(y):
                failures.append("semi-symmetrization drift at (m,n)=(%d,%d)" % (m, n))
                break

    # analytic Jacobian vs central differences at 20 random points
    T = Tensor(rng.uniform(0.1, 1.0, size=(3, 3, 3)))
    S = start_system(np.ones(3), np.ones(3), 3)
    for _ in range(20):
        tau = rng.uniform(0.05, 0.95)
        lam = rng.uniform(0.5, 8.0)
        x = rng.uniform(0.2, 1.5, size=3)
        J = homotopy_jacobian(T, S, tau, lam, x)
        Jfd = fd_jacobian(
            lambda u: homotopy_residual(T, S, tau, u[0], u[1:]), np.concatenate([[lam], x])
        )
        if np.abs(J - Jfd).max() > 1e-6 * max(1.0, np.abs(J).max()):
            failures.append("Jacobian mismatch %.2e" % np.abs(J - Jfd).max())
            break

    # shift and scale covariance
    A = random_instance(3, 4, seed=500)
    base = solve_dominant(A)
    for c in (0.5, 2.0):
        rep = solve_dominant(add_identity(A, c))
        if abs(rep.eigen.lam - (base.eigen.lam + c)) > 1e-8:
            failures.append("shift covariance off by %.2e" % abs(rep.eigen.lam - base.eigen.lam - c))
        if np.abs(rep.eigen.x - base.eigen.x).max() > 1e-8:
            failures.append("shift eigenvector drift")
    for t in (0.1, 5.0):
        rep = solve_dominant(Tensor(t * A.data))
        if abs(rep.eigen.lam - t * base.eigen.lam) > 1e-8:
            failures.append("scale covariance off by %.2e" % abs(rep.eigen.lam - t * base.eigen.lam))
        if np.abs(rep.eigen.x - base.eigen.x).max() > 1e-8:
            failures.append("scale eigenvector drift")

    # path positivity at every accepted step
    for seed in (0, 1):
        accepted_points.clear()
        rep = solve_dominant(random_instance(3, 5, seed=seed))
        if rep.path_min_x <= 0.0 or any(u[1:].min() <= 0.0 for _, u in accepted_points):
            failures.append("path left the positive cone (seed %d)" % seed)

    # strict monotonicity in the entries on 20 random pairs
    for i in range(20):
        gen = np.random.default_rng(600 + i)
        A1 = Tensor(gen.uniform(0.0, 1.0, size=(4, 4, 4)))
        B1 = Tensor(A1.data + gen.uniform(0.0, 0.5, size=(4, 4, 4)))
        la = solve_dominant(A1).eigen.lam
        lb = solve_dominant(B1).eigen.lam
        if not lb > la + 1e-10:
            failures.append("monotonicity failed at pair %d (%.12f vs %.12f)" % (i, la, lb))
            break

    # perturbation bound for symmetric nonnegative tensors
    for i in range(10):
        gen = np.random.default_rng(700 + i)
        A2 = Tensor(full_symmetrize(gen.uniform(0.0, 1.0, size=(3, 3, 3))))
        rho = solve_dominant(A2).eigen.lam
        for eps in (1e-3, 1e-5):
            rho_eps = solve_dominant(perturb(A2, eps)).eigen.lam
            gap = rho_eps - rho
            if not 0.0 <= gap <= eps * 9.0:
                failures.append("perturbation gap %.3e outside [0, %.0e]" % (gap, eps * 9))

    _verdict(6, "invariant suite", failures)


def test_criterion_7_reducible_block_diagonal():
    failures = []
    rng = np.random.default_rng(888)
    data = np.zeros((4, 4, 4))
    b1 = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    b2 = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    data[np.ix_([0, 1], [0, 1], [0, 1])] = b1
    data[np.ix_([2, 3], [2, 3], [2, 3])] = b2
    rep = solve_dominant(Tensor(data), assume="auto")
    expected = max(block2_dominant_bisect(b1), block2_dominant_bisect(b2))
    if not rep.perturbed:
        failures.append("auto mode did not perturb")
    if rep.status != "converged":
        failures.append("status %s" % rep.status)
    if abs(rep.eigen.lam - expected) > 1e-6:
        failures.append("lambda %.9f vs block oracle %.9f" % (rep.eigen.lam, expected))
    _verdict(7, "reducible block-diagonal handling", failures)


def test_criterion_8_rate_diagnostic(desk_scale_runs):
    failures = []
    # scale invariance of the rate bound on the d-scaled family (computed on
    # the off-diagonal part, which is nonnegative and scales exactly)
    for seed in (100, 101, 102):
        rates = []
        for d in (0, 3, 6):
            A = random_instance(3, 10, d=d, seed=seed)
            off = np.array(A.data)
            off[(np.arange(10),) * 3] = 0.0
            rates.append(convergence_rate_estimate(Tensor(off)))
        if max(rates) - min(rates) > 1e-12:
            failures.append("rate varies with d by %.2e (seed %d)" % (max(rates) - min(rates), seed))
    d3, d6 = desk_scale_runs
    iters_d3 = float(np.mean([p.iter for _, p in d3]))
    iters_d6 = float(np.mean([p.iter for _, p in d6]))
    print(
        "[acceptance]   recorded power-iteration growth: d=3 mean %.1f, d=6 mean %.1f (cap)"
        % (iters_d3, iters_d6)
    )
    if not iters_d6 > iters_d3:
        failures.append("iteration counts did not grow with d")
    if not all(p.iter >= 50000 for _, p in d6):
        failures.append("a d=6 run finished under the cap")
    _verdict(8, "power-iteration rate diagnostic", failures)
