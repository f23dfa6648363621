"""Euler-Newton path following from a rank-one start system to the shifted
eigenproblem, and the top-level dominant-eigenpair driver.

The homotopy blends the start system P (rank-one tensor S with a closed-form
Perron pair) into the target system Q (shifted tensor T) as tau goes 0 -> 1:

    H_tau(lam, x) = ((tau*T + (1-tau)*S) x^{m-1} - lam x^{[m-1]}; x.x - 1)

For every tau in [0,1) the positive blend has a unique positive Perron pair
and a nonsingular Jacobian there, so the solution curve can be followed by
an Euler predictor and a Newton corrector with adaptive step control, with a
final jump ("endgame") from tau = beta to tau = 1.  HomotopyConfig holds the
method's parameters; the step control's Newton caps and step bounds are the
module constants NEWTON_CAP_* and DTAU_*.

Cost model.  Each Newton iterate makes one (y, J) evaluation of T, one of S
and one LAPACK solve.  S is closed form, O(n^2), and so are T's alpha*I and
eps terms; T's evaluation reads each slice block of the input A twice, once
for the contraction chain, each step of which is one gemv over the block's
flat view, and once for the k = m-1 Jacobian term (Tensor.tvp_and_jacobian).
The kernel's temporaries, the chain's n^{m-1} + ... + n entries and one n-by-n
array per Jacobian term, are freed when it returns; the evaluation keeps T's
and S's n-by-n Jacobians and the (n+1)-by-(n+1) system matrix, in which the
blend tau*J_T + (1-tau)*J_S is formed in place.  The predictor makes
none after the start: the corrector's converged iterate has just evaluated
the system at the accepted point, so it also solves for the tangent there
and hands on that n+1 vector, which every prediction from the point (its
retries after a rejection and the endgame jump included) reuses.  The start
point at tau = 0 evaluates its tangent once, before the first step; a point
whose Jacobian is singular carries none, and predicting from it raises at
once.  The final residual is one y-only pass.  One input scan per solve,
require_essentially_nonnegative, reads alpha from A's strided diagonal and
keeps the n-1 row minima of a strided view of its off-diagonal entries,
masking a row only to locate a negative entry.  If no off-diagonal entry is
zero, A is irreducible; otherwise weak_irreducibility_check masks A a block
of slices at a time, max(n^{m-1}, tensor.SCAN_BLOCK_ENTRIES) entries, not n^m.

The kernel reads A in slice blocks too.  An input of up to
tensor.KERNEL_BLOCK_ENTRIES entries is one block, evaluated inline on the
calling thread; a larger one is cut, by (m, n) alone, into near-equal blocks
that up to len(os.sched_getaffinity(0)) threads evaluate at once.  Each block
writes only its own rows of y and J, so results do not depend on the thread
count.  Nothing about this is configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularMatrixError, solve
from .tensor import (
    EigenPair,
    ShiftedTensor,
    eigen_residual,
    require_essentially_nonnegative,
    start_pair,
    start_system,
    weak_irreducibility_check,
)

# Not called here since T and S are evaluated in closed form and solved by
# LAPACK; perfbench/spans.py wraps these names in this module and needs them
# to exist.
from .linalg import lu_apply, lu_factor  # noqa: F401
from .tensor import add_identity, perturb, rank_one_start, tvp, tvp_jacobian  # noqa: F401

# Step control: Newton iteration caps on the path and in the endgame, and
# the floor and cap of the continuation step.
NEWTON_CAP_PATH = 10
NEWTON_CAP_ENDGAME = 100
DTAU_MIN = 1e-6
DTAU_MAX = 0.4


class NewtonStalled(RuntimeError):
    """Newton failed to reach the target residual within the iteration cap."""

    def __init__(self, iterations):
        self.iterations = iterations
        super().__init__("Newton did not reach tolerance within %d iterations" % iterations)


class PositivityLost(RuntimeError):
    """A correction converged outside the positive cone.

    The solution curve is the Perron pair of a positive blend and stays
    strictly positive, so a corrected point with a nonpositive component
    means Newton jumped to a different, sign-mixed eigenpair.
    """

    def __init__(self, iterations=0):
        self.iterations = iterations
        super().__init__("corrected point left the positive cone")


# How a prediction-correction step fails; Newton's failures carry .iterations.
_STEP_FAILURES = (SingularMatrixError, NewtonStalled, PositivityLost)


@dataclass
class HomotopyConfig:
    """Knobs of the path follower; defaults follow the standard recipe."""

    dtau0: float = 0.1
    eps1: float = 1e-5  # path Newton tolerance
    eps2: float = 1e-10  # endgame tolerance
    beta: float = 0.9999  # endgame threshold
    eps_perturb: float = 1e-9  # constant added to A: on reducible input here, always in PTA
    max_steps: int = 50000  # prediction-correction cap

    def __post_init__(self):
        if not 0.0 < self.dtau0 <= DTAU_MAX:
            raise ValueError("dtau0 must lie in (0, %g]" % DTAU_MAX)
        if not 0.0 < self.eps2 <= self.eps1 < np.inf:
            raise ValueError("need 0 < eps2 <= eps1, both finite")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.eps_perturb < np.inf:
            raise ValueError("eps_perturb must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class PathState:
    """Point u = (lam, x...) on the solution curve at tau, its path tangent
    (JH g = -dH/dtau; None where JH is singular) and step-control history."""

    tau: float
    u: np.ndarray = field(repr=False)
    tangent: np.ndarray | None = field(repr=False)
    dtau: float
    last_two_uncut: tuple = (False, False)
    step_count: int = 0
    newton_total: int = 0


@dataclass
class SolveReport:
    """Outcome of one dominant-eigenpair solve.

    ``eigen`` is the pair for the original tensor A (eigenvalue already
    shifted back by alpha); ``lambda_shifted`` is the eigenvalue of the
    nonnegative tensor the solver actually iterated on.  The defaults
    describe a solve that produced nothing, as recorded for a solver that
    raised.
    """

    method: str  # homotopy | pta
    status: str  # converged | step_limit | endgame_failure
    eigen: EigenPair | None = None
    residual_norm: float = np.nan
    iter: int = 0
    nwtiter: int = 0
    wall_time_s: float = 0.0
    perturbed: bool = False
    alpha: float = np.nan
    lambda_shifted: float = np.nan
    path_min_x: float = np.nan

    def to_dict(self):
        """The JSON report of ``teneig solve`` and of ``teneig compare`` records."""
        return {
            "method": self.method,
            "status": self.status,
            "lambda": self.eigen.lam if self.eigen else np.nan,
            "x": [float(v) for v in self.eigen.x] if self.eigen else [],
            "residual_norm": self.residual_norm,
            "iter": self.iter,
            "nwtiter": self.nwtiter,
            "wall_time_s": self.wall_time_s,
            "alpha": self.alpha,
            "lambda_shifted": self.lambda_shifted,
            "perturbed": self.perturbed,
            "path_min_x": self.path_min_x,
        }


def _system(T, S, tau, lam, x):
    """Residual, (lam, x)-Jacobian and tau-derivative of H_tau at (lam, x).

    One tvp_and_jacobian call on each of T and S gives all three.  The
    Jacobian's first column is -x^{[m-1]} stacked over 0, its trailing n-by-n
    block is the x-Jacobian of the blended contraction minus
    lam*(m-1)*diag(x^{m-2}), and its bottom row is (0, 2x^T) from the
    normalization constraint.  The tau-derivative is ((T - S) x^{m-1}; 0).
    """
    m, n = T.order, T.dim
    yT, JT = T.tvp_and_jacobian(x)
    yS, JS = S.tvp_and_jacobian(x)
    xq = x ** (m - 2)
    xp = xq * x
    r = np.empty(n + 1)
    r[:n] = tau * yT + (1.0 - tau) * yS - lam * xp
    r[n] = x @ x - 1.0
    # Both kernels return fresh n-by-n arrays, so the blend is built in J's
    # block and in JS itself: no n-by-n temporary, and JT is released first.
    J = np.empty((n + 1, n + 1))
    J[:n, 0] = -xp
    J[n, 0] = 0.0
    blend = J[:n, 1:]
    np.multiply(JT, tau, out=blend)
    del JT
    JS *= 1.0 - tau
    blend += JS
    # Entries (i, i+1) sit at flat offsets 1 + i*(n+2): a strided view, where
    # fancy indexing would hold two index arrays at the solve's memory peak.
    xq *= lam * (m - 1)
    J.reshape(-1)[1 :: n + 2] -= xq
    J[n, 1:] = 2.0 * x
    dH = np.empty(n + 1)
    np.subtract(yT, yS, out=dH[:n])
    dH[n] = 0.0
    return r, J, dH


def predict(state, dtau):
    """Euler predictor u + dtau * g from the state's point u and tangent g;
    SingularMatrixError when it has none, its Jacobian being singular."""
    if state.tangent is None:
        raise SingularMatrixError()
    return state.u + dtau * state.tangent


def newton_correct(T, S, tau, u0, tol, cap):
    """Newton iteration on the homotopy at fixed tau from u0 = (lam, x...).

    Returns (u, iterations, g) once the residual 2-norm drops to tol, where
    g is the path tangent at u, solved from the Jacobian and tau-derivative
    of that last evaluation, or None when that Jacobian is singular or tau
    is 1, where the path ends and no prediction follows.  Raises
    NewtonStalled after cap updates, or SingularMatrixError on a degenerate
    Jacobian; both carry the Newton iterations already spent.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    u = np.array(u0, dtype=float)
    for i in range(cap + 1):
        r, J, dH = _system(T, S, tau, u[0], u[1:])
        if math.sqrt(r @ r) <= tol:  # np.linalg.norm(r) for a 1-D float array
            return u, i, None if tau == 1.0 else _tangent(J, dH)
        if i == cap:
            raise NewtonStalled(cap)
        try:
            u = u - solve(J, r)
        except SingularMatrixError as err:
            err.iterations = i
            raise
    raise AssertionError("unreachable")


def _tangent(J, dH):
    """The path tangent g, J g = -dH, or None where J is singular."""
    try:
        return solve(J, -dH)
    except SingularMatrixError:
        return None


def update_step_size(state, newton_iters_used):
    """Next step length after an accepted correction.

    More than three Newton iterations halve the step (floor DTAU_MIN); two
    consecutive steps without such a cut double it (cap DTAU_MAX); otherwise
    it is kept.  Records the step's cut/uncut flag in state.last_two_uncut.
    """
    cut = newton_iters_used > 3
    state.last_two_uncut = (state.last_two_uncut[1], not cut)
    if cut:
        return max(0.5 * state.dtau, DTAU_MIN)
    if all(state.last_two_uncut):
        return min(2.0 * state.dtau, DTAU_MAX)
    return state.dtau


def _step(T, S, state, dtau, tau_next, tol, cap):
    """One prediction-correction step from state to tau_next = state.tau + dtau.

    Returns newton_correct's (u, newton_iterations, tangent at u); raises one
    of _STEP_FAILURES.  A nonpositive component means Newton left the
    strictly positive curve for a sign-mixed eigenpair of the blend.
    """
    ubar = predict(state, dtau)
    u, iters, g = newton_correct(T, S, tau_next, ubar, tol, cap)
    if u[1:].min() <= 0.0:
        raise PositivityLost(iters)
    return u, iters, g


def endgame(T, S, state, config):
    """Final jump from the path's state at tau = beta to tau = 1: one more
    prediction-correction step, to the tight tolerance eps2 with a larger
    Newton cap.  Returns (EigenPair, newton_iterations)."""
    u, iters, _ = _step(T, S, state, 1.0 - state.tau, 1.0, config.eps2, NEWTON_CAP_ENDGAME)
    return EigenPair(u[0], u[1:]), iters


def _solve_shifted(A, alpha, config, a, b, use_perturbation):
    """Run the full pipeline on T = (A_eps or A) + alpha*I; wall time unset.

    T and the start system S are closed-form operators over A and the start
    vectors, so the only n^m array is the input.
    """
    m = A.order
    T = ShiftedTensor(A, alpha, config.eps_perturb if use_perturbation else 0.0)
    S = start_system(a, b, m)
    start = start_pair(a, b, m)
    u = np.concatenate([[start.lam], start.x])
    state = PathState(0.0, u, _tangent(*_system(T, S, 0.0, u[0], u[1:])[1:]), config.dtau0)
    min_x = float(u[1:].min())

    def follow(target):
        """Step until tau = target is accepted; False at max_steps or the DTAU_MIN floor."""
        nonlocal min_x
        while state.tau < target:
            if state.step_count >= config.max_steps:
                return False
            dtau = state.dtau
            tau_next = state.tau + dtau
            if tau_next >= target:
                tau_next = target
                dtau = target - state.tau
            state.step_count += 1
            try:
                u_new, iters, g = _step(
                    T, S, state, dtau, tau_next, config.eps1, NEWTON_CAP_PATH
                )
            except _STEP_FAILURES as exc:
                state.newton_total += getattr(exc, "iterations", 0)
                # Halve the step just tried, which clipping can make < state.dtau.
                if dtau <= DTAU_MIN:
                    return False
                state.dtau = max(0.5 * dtau, DTAU_MIN)
                continue
            state.tau, state.u, state.tangent = tau_next, u_new, g
            state.newton_total += iters
            min_x = min(min_x, float(u_new[1:].min()))
            state.dtau = update_step_size(state, iters)
        return True

    # A failed jump is retried once from closer to 1.  Jumps count in iter,
    # not in the path's step_count (its max_steps budget).
    pair, jumps = None, 0
    for beta in (config.beta, 0.5 * (1.0 + config.beta)):
        if not follow(beta):
            status = "step_limit"
            break
        jumps += 1
        try:
            pair, iters = endgame(T, S, state, config)
        except _STEP_FAILURES as exc:
            state.newton_total += getattr(exc, "iterations", 0)
            status = "endgame_failure"
            continue
        state.newton_total += iters
        status = "converged"
        break

    if pair is None:
        pair = EigenPair(float(state.u[0]), state.u[1:])
    else:
        min_x = min(min_x, float(pair.x.min()))
    residual = float(np.linalg.norm(eigen_residual(T, pair.lam, pair.x)))
    return SolveReport(
        method="homotopy",
        status=status,
        eigen=EigenPair(pair.lam - T.alpha, pair.x),
        residual_norm=residual,
        iter=state.step_count + jumps,
        nwtiter=state.newton_total,
        perturbed=use_perturbation,
        alpha=T.alpha,
        lambda_shifted=pair.lam,
        path_min_x=min_x,
    )


def solve_dominant(A, config=None, a=None, b=None, assume="auto"):
    """Dominant eigenpair of an essentially nonnegative tensor A.

    The returned pair has the largest real eigenvalue of A and, for
    irreducible input, a strictly positive unit eigenvector.  Pipeline:
    diagonal alpha-shift to a nonnegative tensor, constant eps-perturbation
    when the input is (assumed) reducible, rank-one start system from the
    positive vectors a and b (default all ones), Euler-Newton path
    following to beta, endgame jump to 1.

    ``assume`` gates the perturbation: "auto" perturbs iff the weak
    irreducibility check fails (skipped when no off-diagonal entry is zero),
    "irreducible"/"reducible" force it off/on.
    A failed endgame first retries with beta closer to 1, then once more
    with the perturbation switched on.
    """
    t_start = time.perf_counter()
    config = HomotopyConfig() if config is None else config
    n = A.dim
    a = np.ones(n) if a is None else np.asarray(a, dtype=float)
    b = np.ones(n) if b is None else np.asarray(b, dtype=float)
    if a.shape != (n,) or b.shape != (n,):
        raise ValueError("a and b must have length %d" % n)
    if assume not in ("auto", "irreducible", "reducible"):
        raise ValueError("assume must be one of auto, irreducible, reducible")
    # One scan of A serves both attempts; with every off-diagonal entry
    # positive it has settled irreducibility too.
    alpha, complete = require_essentially_nonnegative(A)
    if assume == "auto":
        perturbed = not (complete or weak_irreducibility_check(A))
    else:
        perturbed = assume == "reducible"
    report = _solve_shifted(A, alpha, config, a, b, perturbed)
    if report.status == "endgame_failure" and not perturbed:
        retry = _solve_shifted(A, alpha, config, a, b, True)
        retry.iter += report.iter
        retry.nwtiter += report.nwtiter
        report = retry
    report.wall_time_s = time.perf_counter() - t_start
    return report
