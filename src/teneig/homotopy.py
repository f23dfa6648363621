"""Euler-Newton path following from a rank-one start system to the shifted
eigenproblem, a certified finish on the input, and the driver.

The homotopy blends the start system P (rank-one tensor S with a closed-form
Perron pair) into the target system Q (shifted tensor T) as tau goes 0 -> 1:

    H_tau(lam, x) = ((tau*T + (1-tau)*S) x^{m-1} - lam x^{[m-1]}; x.x - 1)

For every tau in [0,1) the positive blend has a unique positive Perron pair
and a nonsingular Jacobian there, so the solution curve can be followed by
an Euler predictor and a Newton corrector with adaptive step control, with a
final jump ("endgame") from tau = BETA to tau = 1.  The recipe's steps,
tolerances and caps are the module constants below; HomotopyConfig holds
only what a caller sets, eps_perturb and max_steps.  Every answer carries its
Collatz-Wielandt bracket [min r, max r], r = A x^{m-1} / x^{[m-1]}, on the
input A; whatever the path's outcome, an unperturbed answer the bracket does
not certify gets Newton-Noda sweeps on A (_finish), and nothing is retried.

Cost model.  Each Newton iterate makes one (y, J) evaluation of T, one of S
and one LAPACK solve.  S is closed form, O(n^2), and so are T's alpha*I and
eps terms; T's evaluation reads each slice block of the input A twice, once
for the contraction chain and once for the k = m-1 Jacobian term
(Tensor.tvp_and_jacobian).  The evaluation keeps T's and S's n-by-n
Jacobians and the (n+1)-by-(n+1) system matrix, in which the blend
tau*J_T + (1-tau)*J_S is formed in place.  The predictor evaluates nothing:
each accepted point carries the tangent its corrector solved for from its
last evaluation (PathState), and the start point's is solved once, before
the first step.  The final residual is one y-only pass, which also gives
the bracket; the finish, only while that is open, makes one (y, J) pass
over A and one LAPACK solve per sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .linalg import SingularMatrixError, solve
from .tensor import (
    EigenPair,
    ShiftedTensor,
    eigen_residual,
    ratio_bracket,
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

# Step control: the first continuation step, its floor and cap, the Newton
# tolerances on the path (EPS1) and in the endgame (EPS2, also PTA's), their
# iteration caps, and the tau at which the path jumps to 1 (BETA).
DTAU0 = 0.1
DTAU_MIN = 1e-6
DTAU_MAX = 0.4
EPS1 = 1e-5
EPS2 = 1e-10
NEWTON_CAP_PATH = 10
NEWTON_CAP_ENDGAME = 100
BETA = 0.9999

# The certified finish: the relative width of the bracket that certifies an
# answer (certified) and the cap on the Newton-Noda sweeps (_finish).
CERT_RTOL = 1e-6
SWEEP_CAP = 50


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
    """The two settings a caller chooses; the rest of the recipe is constants."""

    eps_perturb: float = 1e-9  # constant added to A: on reducible input here, always in PTA
    max_steps: int = 50000  # prediction-correction cap

    def __post_init__(self):
        if not 0.0 < self.eps_perturb < np.inf:
            raise ValueError("eps_perturb must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class PathState:
    """Point u = (lam, x...) on the solution curve at tau, its path tangent
    (JH g = -dH/dtau; None where JH is singular), step-control history, and
    the path's counters, min_x the smallest x component of an accepted point."""

    tau: float
    u: np.ndarray = field(repr=False)
    tangent: np.ndarray | None = field(repr=False)
    dtau: float
    last_two_uncut: tuple = (False, False)
    step_count: int = 0
    newton_total: int = 0
    min_x: float = np.inf


@dataclass
class SolveReport:
    """Outcome of one dominant-eigenpair solve.

    ``eigen`` is the pair for the original tensor A (eigenvalue already
    shifted back by alpha); ``lambda_shifted`` is the eigenvalue of the
    nonnegative tensor the solver actually iterated on.  The defaults
    describe a solve that produced nothing, as recorded for a solver that
    raised.  The fields, in order, are the keys of ``to_dict()``, with
    ``eigen`` given as ``lambda`` and ``x``.
    """

    method: str  # homotopy | pta
    status: str  # converged | step_limit | endgame_failure
    eigen: EigenPair | None = None
    residual_norm: float = np.nan
    iter: int = 0
    nwtiter: int = 0
    wall_time_s: float = 0.0
    alpha: float = np.nan
    lambda_shifted: float = np.nan
    perturbed: bool = False
    path_min_x: float = np.nan
    lam_lower: float = np.nan  # Collatz-Wielandt bracket on A at x
    lam_upper: float = np.nan
    finish_sweeps: int = 0  # Newton-Noda sweeps of the certified finish

    def to_dict(self):
        """The JSON report of ``teneig solve`` and of ``teneig compare`` records."""
        out = {}
        for f in fields(self):
            if f.name != "eigen":
                out[f.name] = getattr(self, f.name)
            elif self.eigen:
                out["lambda"], out["x"] = self.eigen.lam, [float(v) for v in self.eigen.x]
            else:
                out["lambda"], out["x"] = np.nan, []
        return out


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
        if math.hypot(*r) <= tol:  # the 2-norm; r @ r can overflow where it does not
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


def endgame(T, S, state):
    """Final jump from the path's state at tau = BETA to tau = 1: one more
    prediction-correction step, to the tight tolerance EPS2 with a larger
    Newton cap.  Returns (EigenPair, newton_iterations)."""
    u, iters, _ = _step(T, S, state, 1.0 - state.tau, 1.0, EPS2, NEWTON_CAP_ENDGAME)
    return EigenPair(u[0], u[1:]), iters


def _follow(T, S, state, max_steps):
    """Step until tau = BETA is accepted; False at max_steps or the DTAU_MIN floor."""
    while state.tau < BETA:
        if state.step_count >= max_steps:
            return False
        dtau = state.dtau
        tau_next = state.tau + dtau
        if tau_next >= BETA:
            tau_next = BETA
            dtau = BETA - state.tau
        state.step_count += 1
        try:
            u_new, iters, g = _step(T, S, state, dtau, tau_next, EPS1, NEWTON_CAP_PATH)
        except _STEP_FAILURES as exc:
            state.newton_total += getattr(exc, "iterations", 0)
            # Halve the step just tried, which clipping can make < state.dtau.
            if dtau <= DTAU_MIN:
                return False
            state.dtau = max(0.5 * dtau, DTAU_MIN)
            continue
        state.tau, state.u, state.tangent = tau_next, u_new, g
        state.newton_total += iters
        state.min_x = min(state.min_x, float(u_new[1:].min()))
        state.dtau = update_step_size(state, iters)
    return True


def _solve_shifted(A, alpha, config, a, b, use_perturbation):
    """The path on T = (A_eps or A) + alpha*I to BETA, one jump to 1, and the
    finish; wall time unset.  T and the start system S are closed-form
    operators over A and the start vectors, so the only n^m array is A.
    """
    m = A.order
    T = ShiftedTensor(A, alpha, config.eps_perturb if use_perturbation else 0.0)
    S = start_system(a, b, m)
    start = start_pair(a, b, m)
    u = np.concatenate([[start.lam], start.x])
    g = _tangent(*_system(T, S, 0.0, u[0], u[1:])[1:])
    state = PathState(0.0, u, g, DTAU0, min_x=float(u[1:].min()))

    # The jump counts in iter, not in the path's step_count (its max_steps).
    pair, status, jumped = None, "step_limit", _follow(T, S, state, config.max_steps)
    if jumped:
        try:
            pair, iters = endgame(T, S, state)
            status = "converged"
            state.min_x = min(state.min_x, float(pair.x.min()))
        except _STEP_FAILURES as exc:
            iters, status = getattr(exc, "iterations", 0), "endgame_failure"
        state.newton_total += iters
    pair = pair or EigenPair(float(state.u[0]), state.u[1:])
    T = replace(T, yA=np.empty(A.dim))  # the final pass leaves A x^{m-1} in T.yA
    residual = float(np.linalg.norm(eigen_residual(T, pair.lam, pair.x)))
    lo, hi = ratio_bracket(T.yA, pair.x ** (m - 1))
    report = SolveReport(
        "homotopy", status, EigenPair(pair.lam - T.alpha, pair.x), residual_norm=residual,
        iter=state.step_count + jumped, nwtiter=state.newton_total, alpha=T.alpha,
        lambda_shifted=pair.lam, perturbed=use_perturbation, path_min_x=state.min_x,
        lam_lower=lo, lam_upper=hi,
    )
    if not use_perturbation and not certified(report.eigen.lam, lo, hi):
        _finish(A, report)
    return report


def certified(lam, lo, hi):
    """Whether lam and the bracket [lo, hi] on A lie within CERT_RTOL*|lam|."""
    return max(hi, lam) - min(lo, lam) <= CERT_RTOL * abs(lam)


def _finish(A, report):
    """Newton-Noda sweeps on A itself (Liu, Guo and Lin, Numer. Math. 2017,
    less their step-length safeguard) from the report's x, or the uniform
    vector if x is not positive, while the bracket narrows, at most
    SWEEP_CAP; a singular M or an x not finite and positive ends them.  The
    narrowest bracket is adopted if it certifies, "converged" at its middle.
    """
    m, n = A.order, A.dim
    x = report.eigen.x if report.eigen.x.min() > 0.0 else np.full(n, n**-0.5)
    best, width = (np.nan,) * 5, np.inf
    with np.errstate(all="ignore"):
        while report.finish_sweeps < SWEEP_CAP:
            report.finish_sweeps += 1
            y, M = A.tvp_and_jacobian(x)
            xq = x ** (m - 2)
            xp = xq * x
            lo, hi = ratio_bracket(y, xp)
            if not hi - lo < width:
                break
            best, width = (lo, hi, x, y, xp), hi - lo
            # M = lam_k (m-1) diag(x^{m-2}) - J_A at lam_k = max r
            M *= -1.0
            M.reshape(-1)[:: n + 1] += hi * (m - 1) * xq
            # Not linalg.solve: its conditioning check rejects M near
            # reducibility, where these sweeps still converge.
            try:
                w = np.linalg.solve(M, xp)
            except np.linalg.LinAlgError:
                break
            x = (m - 2) * x + w / (x @ w)
            x /= math.sqrt(x @ x)
            if not np.minimum.reduce(x) > 0.0:  # NaN too
                break
    lo, hi, x, y, xp = best
    if certified(0.5 * (lo + hi), lo, hi):
        report.status, report.eigen = "converged", EigenPair(0.5 * (lo + hi), x)
        r = y - report.eigen.lam * xp
        report.residual_norm = math.sqrt(r @ r + (x @ x - 1.0) ** 2)
        report.lambda_shifted = report.eigen.lam + report.alpha
        report.lam_lower, report.lam_upper = lo, hi


def solve_dominant(A, config=None, a=None, b=None, assume="auto"):
    """Dominant eigenpair of an essentially nonnegative tensor A.

    The returned pair has the largest real eigenvalue of A and, for
    irreducible input, a strictly positive unit eigenvector.  Pipeline:
    diagonal alpha-shift to a nonnegative tensor, constant eps-perturbation
    when the input is (assumed) reducible, rank-one start system from the
    positive vectors a and b (default all ones), Euler-Newton path
    following to BETA, one endgame jump to 1, then _finish for an
    unperturbed answer that its Collatz-Wielandt bracket on A does not certify.

    ``assume`` gates the perturbation: "auto" perturbs iff the weak
    irreducibility check fails (skipped when no off-diagonal entry is zero),
    "irreducible"/"reducible" force it off/on.
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
    # One scan of A; with every off-diagonal entry positive it has settled
    # irreducibility too.
    alpha, complete = require_essentially_nonnegative(A)
    if assume == "auto":
        perturbed = not (complete or weak_irreducibility_check(A))
    else:
        perturbed = assume == "reducible"
    report = _solve_shifted(A, alpha, config, a, b, perturbed)
    report.wall_time_s = time.perf_counter() - t_start
    return report
