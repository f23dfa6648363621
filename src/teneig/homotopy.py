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
An unperturbed answer outside a finite bracket moves to its nearer end.

Cost model.  A is read only by Tensor.tvp and Tensor.jacobian_pass, each one
read of every slice block; the rest of H_tau is closed form, O(n^2): T's
alpha*x^{[m-1]} and eps*(1.x)^{m-1}, S's (b.x)^{m-1} c, the lam term and
their Jacobians.  Every Newton iterate makes a y-pass (_y_pass), which
writes A's mode-2 Jacobian term into the (n+1)-by-(n+1) system matrix, the
residual and -dH into an (n+1)-by-2 right-hand side.  Only an iterate that
updates makes a J-pass (_j_pass) that completes the system matrix, in which
the blend tau*J_T + (1-tau)*J_S is formed in place, and one LAPACK call on
both columns: the Newton step and the path tangent, which the accepted point
carries for the predictor.  A point accepted before tau = 1 without an
update gets one J-pass and LAPACK call for its tangent; at tau = 1 no
tangent is solved, and the start tangent needs the y-pass alone, T's
Jacobian having weight 0 at tau = 0.  So a solve without rejections makes
2 + iter + nwtiter y-passes (the start, every iterate, the final residual,
which also gives the bracket), nwtiter + z J-passes and 1 + nwtiter + z
LAPACK calls, z the points accepted before tau = 1 without an update;
SolveReport counts all three.  The finish, only while the bracket is open,
makes a y-pass of A per sweep, and a J-pass and LAPACK call only for a sweep
that goes on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import SingularMatrixError, solve
from .tensor import (
    EigenPair,
    ShiftedTensor,
    _add_shift_terms,
    ratio_bracket,
    require_essentially_nonnegative,
    start_pair,
    start_system,
    tvp,
    weak_irreducibility_check,
)

# Not called here since T and S are evaluated in closed form and solved by
# LAPACK; perfbench/spans.py wraps these names in this module and needs them
# to exist.
from .linalg import lu_apply, lu_factor  # noqa: F401
from .tensor import add_identity, eigen_residual, perturb, rank_one_start, tvp_jacobian  # noqa: F401

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
    the path's counters, min_x the smallest x component of an accepted point;
    the last three are SolveReport's work counts."""

    tau: float
    u: np.ndarray = field(repr=False)
    tangent: np.ndarray | None = field(repr=False)
    dtau: float
    last_two_uncut: tuple = (False, False)
    step_count: int = 0
    newton_total: int = 0
    min_x: float = np.inf
    y_passes: int = 0
    jacobian_passes: int = 0
    linear_solves: int = 0


@dataclass
class SolveReport:
    """Outcome of one dominant-eigenpair solve.

    ``eigen`` is the pair for the original tensor A (eigenvalue already
    shifted back by alpha); ``lambda_shifted`` is the eigenvalue of the
    nonnegative tensor the solver actually iterated on.  The defaults
    describe a solve that produced nothing, as recorded for a solver that
    raised.  The fields, in order, are the keys of ``to_dict()``, with
    ``eigen`` given as ``lambda`` and ``x``.  The last three count the work:
    passes over A for T x^{m-1} (the y-pass) and for the rest of its
    Jacobian (the J-pass), and LAPACK calls.
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
    y_passes: int = 0
    jacobian_passes: int = 0
    linear_solves: int = 0

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


def _y_pass(T, S, tau, lam, x, M, R):
    """The first half of H_tau's evaluation at (lam, x), one read of A.

    Writes the residual into R[0] and the tangent's right-hand side
    -dH/dtau = ((S - T) x^{m-1}; 0) into R[1].  For tau > 0, A's tvp leaves
    its mode-2 Jacobian term in M's x-block, where _j_pass completes it.
    S is the rank-one start system, S x^{m-1} = (b.x)^{m-1} c.  Returns
    (x^{m-2}, x^{[m-1]}, b.x), which _j_pass reuses.
    """
    m, n = T.A.order, x.shape[0]
    yT = T.A.tvp(x, M[:n, 1:] if tau else None)
    # x ** (m - 1), as the final pass takes it; xq * x can differ in the last bit.
    _add_shift_terms(yT, x, x ** (m - 1), m, T.alpha, T.eps)
    s = S.b @ x
    yS = s ** (m - 1) * S.c
    xq = x ** (m - 2)
    xp = xq * x
    R[0, :n] = tau * yT + (1.0 - tau) * yS - lam * xp
    R[0, n] = x @ x - 1.0
    np.subtract(yS, yT, out=R[1, :n])
    R[1, n] = 0.0
    return xq, xp, s


def _j_pass(T, S, tau, lam, x, M, shared):
    """The second half: completes M, which holds the y-pass's term, to the
    (lam, x)-Jacobian of H_tau, from the y-pass's shared values.  One read
    of A for tau > 0, none at tau = 0, where T's Jacobian has weight 0.

    M's first column is -x^{[m-1]} over 0, its trailing n-by-n block is the
    x-Jacobian of the blended contraction minus lam*(m-1)*diag(x^{m-2}),
    and its bottom row is (0, 2x^T) from the normalization constraint.  The
    blend tau*J_T + (1-tau)*J_S is formed in that block: J_T is A's Jacobian
    plus alpha*(m-1)*diag(x^{m-2}) and eps*(m-1)*(1.x)^{m-2} in every entry,
    and S's Jacobian is (m-1)(b.x)^{m-2} c b^T.
    """
    xq, xp, s = shared
    m, n = T.A.order, x.shape[0]
    J = M[:n, 1:]
    # J's diagonal, entries (i, i+1) of M, sits at flat offsets 1 + i*(n+2).
    diag = M.reshape(-1)[1 :: n + 2]
    if tau:
        T.A.jacobian_pass(x, J)
        diag += T.alpha * (m - 1) * xq
        if T.eps:
            J += T.eps * (m - 1) * float(np.add.reduce(x)) ** (m - 2)
        J *= tau
    else:
        J[...] = 0.0
    if tau < 1.0:
        J += np.multiply.outer(((1.0 - tau) * (m - 1) * s ** (m - 2)) * S.c, S.b)
    diag -= lam * (m - 1) * xq
    np.negative(xp, out=M[:n, 0])
    M[n, 0] = 0.0
    np.multiply(x, 2.0, out=M[n, 1:])


def _tangent(T, S, tau, u, M, R, shared, state):
    """The path tangent g at u, JH g = -dH, from u's y-pass in M, R and
    shared: a J-pass and one LAPACK call, counted in state; None where g
    fails the conditioning check."""
    _j_pass(T, S, tau, u[0], u[1:], M, shared)
    state.jacobian_passes += tau > 0.0
    state.linear_solves += 1
    try:
        return solve(M, R[1])
    except SingularMatrixError:
        return None


def _start_tangent(T, S, state):
    """The tangent at the start point state.u: at tau = 0 T's Jacobian has
    weight 0, so a y-pass and one LAPACK call give it."""
    u = state.u
    M, R = np.empty((u.shape[0],) * 2), np.empty((2, u.shape[0]))
    shared = _y_pass(T, S, 0.0, u[0], u[1:], M, R)
    state.y_passes += 1
    return _tangent(T, S, 0.0, u, M, R, shared, state)


def predict(state, dtau):
    """Euler predictor u + dtau * g from the state's point u and tangent g;
    SingularMatrixError when it has none, its Jacobian being singular."""
    if state.tangent is None:
        raise SingularMatrixError()
    return state.u + dtau * state.tangent


def newton_correct(T, S, tau, u0, tol, cap, state=None):
    """Newton iteration on the homotopy at fixed tau from u0 = (lam, x...).

    Every iterate makes a y-pass; one that updates then makes a J-pass and
    one LAPACK call on the two columns (r, -dH), which give the Newton step
    and the path tangent.  Returns (u, iterations, g) once the residual
    2-norm drops to tol: g is the last update's tangent, or after none a
    J-pass and one LAPACK call at u0 give it.  g is None where its column
    fails the conditioning check, and at tau = 1, where the path ends and no
    prediction follows.  Raises NewtonStalled after cap updates, or
    SingularMatrixError where an update's column fails the check; both
    carry the Newton iterations already spent.  The passes and LAPACK calls
    are counted in state, the path's PathState.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    u = np.array(u0, dtype=float)
    state = PathState(tau, u, None, 0.0) if state is None else state
    M, R = np.empty((u.shape[0],) * 2), np.empty((2, u.shape[0]))
    g = None
    for i in range(cap + 1):
        shared = _y_pass(T, S, tau, u[0], u[1:], M, R)
        state.y_passes += 1
        if math.hypot(*R[0]) <= tol:  # the 2-norm; r @ r can overflow where it does not
            if tau == 1.0:
                return u, i, None
            return u, i, g if i else _tangent(T, S, tau, u, M, R, shared, state)
        if i == cap:
            raise NewtonStalled(cap)
        _j_pass(T, S, tau, u[0], u[1:], M, shared)
        state.jacobian_passes += 1
        state.linear_solves += 1
        step, g = solve(M, R.T)
        if step is None:
            err = SingularMatrixError()
            err.iterations = i
            raise err
        u = u - step
    raise AssertionError("unreachable")


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
    u, iters, g = newton_correct(T, S, tau_next, ubar, tol, cap, state)
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
    finish; wall time unset.  T and the start system S are records, whose
    terms the passes add in closed form, so the only n^m array is A.
    """
    m = A.order
    T = ShiftedTensor(A, alpha, config.eps_perturb if use_perturbation else 0.0)
    S = start_system(a, b, m)
    start = start_pair(a, b, m)
    u = np.concatenate([[start.lam], start.x])
    state = PathState(0.0, u, None, DTAU0, min_x=float(u[1:].min()))
    state.tangent = _start_tangent(T, S, state)

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
    # The final y-pass: A x^{m-1} gives the bracket, T x^{m-1} the residual.
    x, xp = pair.x, pair.x ** (m - 1)
    y = tvp(A, x)
    yT = y.copy()
    _add_shift_terms(yT, x, xp, m, T.alpha, T.eps)
    residual = float(np.linalg.norm(np.concatenate([yT - pair.lam * xp, [x @ x - 1.0]])))
    lo, hi = ratio_bracket(y, xp)
    lam, lam_T = pair.lam - T.alpha, pair.lam
    finish = not use_perturbation and not certified(lam, lo, hi)  # on the path's own lam
    if not use_perturbation and math.isfinite(hi - lo) and not lo <= lam <= hi:
        # The bracket holds A's eigenvalue, so a lam outside it moves to the nearer end.
        lam = min(max(lam, lo), hi)
        lam_T = lam + T.alpha
    report = SolveReport(
        "homotopy", status, EigenPair(lam, pair.x), residual_norm=residual,
        iter=state.step_count + jumped, nwtiter=state.newton_total, alpha=T.alpha,
        lambda_shifted=lam_T, perturbed=use_perturbation, path_min_x=state.min_x,
        lam_lower=lo, lam_upper=hi, y_passes=state.y_passes + 1,  # + the final residual
        jacobian_passes=state.jacobian_passes, linear_solves=state.linear_solves,
    )
    if finish:
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
    Each sweep makes a y-pass; only one that goes on makes a J-pass.
    """
    m, n = A.order, A.dim
    x = report.eigen.x if report.eigen.x.min() > 0.0 else np.full(n, n**-0.5)
    best, width = (np.nan,) * 5, np.inf
    M = np.empty((n, n))
    with np.errstate(all="ignore"):
        while report.finish_sweeps < SWEEP_CAP:
            report.finish_sweeps += 1
            report.y_passes += 1
            y = A.tvp(x, M)
            xq = x ** (m - 2)
            xp = xq * x
            lo, hi = ratio_bracket(y, xp)
            if not hi - lo < width:
                break
            best, width = (lo, hi, x, y, xp), hi - lo
            report.jacobian_passes += 1
            A.jacobian_pass(x, M)
            # M = lam_k (m-1) diag(x^{m-2}) - J_A at lam_k = max r
            M *= -1.0
            M.reshape(-1)[:: n + 1] += hi * (m - 1) * xq
            # Not linalg.solve: its conditioning check rejects M near
            # reducibility, where these sweeps still converge.
            report.linear_solves += 1
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
