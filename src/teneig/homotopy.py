"""Euler-Newton path following from a rank-one start system to the shifted
eigenproblem, a certified finish on the input, and the driver.

The homotopy blends the start system P (rank-one tensor S with a closed-form
Perron pair) into the target system Q (shifted tensor T) as tau goes 0 -> 1:

    H_tau(lam, x) = ((tau*T + (1-tau)*S) x^{m-1} - lam x^{[m-1]}; x.x - 1)

For every tau in [0,1) the positive blend has a unique positive Perron pair
and a nonsingular Jacobian there, so the solution curve can be followed by
an Euler predictor and a Newton corrector with adaptive step control, with a
final jump ("endgame") from tau = BETA to tau = 1.  newton_correct alone
accepts a point, the closed-form start pair at tau = 0 included: positive
and, before tau = 1, with a tangent; any other is rejected, and the step is
retried at half its length (a rejected start takes no step).  The recipe's
steps, tolerances and caps are the module constants below; HomotopyConfig
holds only what a caller sets, eps_perturb and max_steps.  Every answer
carries its Collatz-Wielandt bracket [min r, max r], r = A x^{m-1} /
x^{[m-1]}, on the input A.  One answer stage decides the report: an
unperturbed answer the bracket does not certify gets Newton-Noda sweeps on
A (_finish), one outside a finite bracket moves to its nearer end, and
nothing is retried; the residual is the reported pair's, on A + eps.

Cost model.  A is read only by Tensor.tvp and Tensor.jacobian_pass, each one
read of every slice block; the rest of H_tau is closed form, O(n^2): T's
alpha*x^{[m-1]} and eps*(1.x)^{m-1}, S's (b.x)^{m-1} c, the lam term and
their Jacobians.  Every Newton iterate makes a y-pass (_y_pass), which
writes A's mode-2 Jacobian term into the (n+1)-by-(n+1) system matrix, the
residual and -dH into an (n+1)-by-2 right-hand side.  Only an iterate that
updates makes a J-pass (_j_pass) that completes the system matrix, in which
the blend tau*J_T + (1-tau)*J_S is formed in place, and one LAPACK call on
both columns: the Newton step and the path tangent, which the accepted point
carries for the predictor.  A point within tolerance before tau = 1 without
an update makes the J-pass and one LAPACK call on the tangent column alone;
at tau = 1 no tangent is solved.  That block of newton_correct is the
path's one LAPACK call site.  The start is newton_correct's at tau = 0,
where T's Jacobian has weight 0, so its J-pass reads nothing of A: the
closed-form start pair, within tolerance, costs one y-pass and one LAPACK
call.  A correction is rejected at its first iterate off the positive cone,
where the curve cannot be, so one rejected after k updates costs k
y-passes, k J-passes and k LAPACK calls.  So a solve without rejections
makes 2 + iter + nwtiter y-passes (every iterate of the start's, the
steps' and the jump's corrections, and the final pass, which gives the
bracket and the residual) and nwtiter + z LAPACK calls, z the points
accepted before tau = 1 without an update, the start among them; the
J-passes are as many, less those at tau = 0.  SolveReport counts all
three.  The finish, only while the bracket is open, makes a y-pass of A per
sweep, and a J-pass and LAPACK call only for a sweep that goes on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import SingularMatrixError, solve
from .tensor import (
    EigenPair,
    RankOne,
    ShiftedTensor,
    _add_shift_terms,
    ratio_bracket,
    require_essentially_nonnegative,
    start_pair,
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
    """A correction left the positive cone.

    The solution curve is the Perron pair of a positive blend and stays
    strictly positive, so an iterate with a nonpositive component is headed
    for a different, sign-mixed eigenpair.  newton_correct raises it at the
    first such iterate, u0 included; iterations counts the updates spent.
    """

    def __init__(self, iterations=0):
        self.iterations = iterations
        super().__init__("corrected point left the positive cone")


# How newton_correct rejects a correction; each carries .iterations.
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
    (JH g = -dH/dtau; None only at a start newton_correct rejected, which
    takes no step), step-control history, and the path's counters, min_x the
    smallest x component of an accepted point; the last three are
    SolveReport's work counts."""

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
    ``eigen`` given as ``lambda`` and ``x``; ``residual_norm`` is the
    reported pair's, on A (+ eps if perturbed).  The last three count the
    work: passes over A for T x^{m-1} (the y-pass) and for the rest of its
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
    xq = x ** (m - 2)
    xp = xq * x
    _add_shift_terms(yT, x, xp, m, T.alpha, T.eps)
    s = S.b @ x
    yS = s ** (m - 1) * S.c
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


def predict(state, dtau):
    """Euler predictor u + dtau * g from the state's point u and tangent g."""
    return state.u + dtau * state.tangent


def newton_correct(T, S, tau, u0, tol, cap, state=None):
    """Newton iteration on the homotopy at fixed tau from u0 = (lam, x...).

    Every iterate makes a y-pass; one that updates then makes a J-pass and
    one LAPACK call on the two columns (r, -dH), which give the Newton step
    and the path tangent, and u0 within tolerance before tau = 1 makes them
    on -dH alone, for its tangent: the path's only J-passes and LAPACK
    calls, the start's at tau = 0 included.  The path's one acceptance rule:
    an iterate whose residual 2-norm is within tol is returned as (u,
    iterations, g) if its x is positive and, before tau = 1, it has a
    tangent g, the last update's or u0's; g is None at tau = 1, where the
    path ends.  Otherwise it raises PositivityLost for an iterate off the
    positive cone (NaN too), right after the update that left it or for u0
    before its tangent is solved, SingularMatrixError where a step or the
    tangent fails the conditioning check, or NewtonStalled after cap
    updates; each carries the iterations spent, so a correction rejected off
    the cone after k updates has made k y-passes, k J-passes and k LAPACK
    calls.  The passes and LAPACK calls are counted in state, the path's
    PathState; a J-pass at tau = 0 reads nothing of A and is not counted.
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
        # The 2-norm; r @ r can overflow where it does not.
        within = math.hypot(*R[0].tolist()) <= tol
        if within:
            if not np.minimum.reduce(u[1:]) > 0.0:  # only u0: every update is checked below
                raise PositivityLost(i)
            if tau == 1.0:
                return u, i, None
            if i:  # the last update's tangent
                break
        elif i == cap:
            raise NewtonStalled(cap)
        # The path's one LAPACK call site, after a J-pass: the Newton step and
        # the tangent, or at u0 within tolerance the tangent alone.
        _j_pass(T, S, tau, u[0], u[1:], M, shared)
        state.jacobian_passes += tau > 0.0
        state.linear_solves += 1
        if within:
            (g,) = solve(M, R[1:].T)
            break
        step, g = solve(M, R.T)
        if step is None:
            break
        u = u - step
        if not np.minimum.reduce(u[1:]) > 0.0:  # NaN too
            raise PositivityLost(i + 1)
    if within and g is not None:
        return u, i, g
    err = SingularMatrixError()  # no step, or no tangent
    err.iterations = i
    raise err


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


def endgame(T, S, state):
    """Final jump from the path's state at tau = BETA to tau = 1: one more
    prediction-correction step, to the tight tolerance EPS2 with a larger
    Newton cap.  Returns (EigenPair, newton_iterations)."""
    ubar = predict(state, 1.0 - state.tau)
    u, iters, _ = newton_correct(T, S, 1.0, ubar, EPS2, NEWTON_CAP_ENDGAME, state)
    return EigenPair(u[0], u[1:]), iters


def _follow(T, S, state, max_steps):
    """Step until tau = BETA is accepted; False at max_steps, the DTAU_MIN
    floor or a rejected start, every accepted point having a tangent."""
    while state.tau < BETA:
        if state.step_count >= max_steps or state.tangent is None:
            return False
        dtau = state.dtau
        tau_next = state.tau + dtau
        if tau_next >= BETA:
            tau_next = BETA
            dtau = BETA - state.tau
        state.step_count += 1
        ubar = predict(state, dtau)
        try:
            u_new, iters, g = newton_correct(T, S, tau_next, ubar, EPS1, NEWTON_CAP_PATH, state)
        except _STEP_FAILURES as exc:
            state.newton_total += exc.iterations
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
    answer; wall time unset.  T and the start system S are records, whose
    terms the passes add in closed form, so the only n^m array is A.
    """
    m = A.order
    T = ShiftedTensor(A, alpha, config.eps_perturb if use_perturbation else 0.0)
    # start_system's record, from the pair start_pair has just checked
    start = start_pair(a, b, m)
    S = RankOne(a ** (m - 1), b, m)
    u = np.concatenate([[start.lam], start.x])
    state = PathState(0.0, u, None, DTAU0)
    # The start is corrected and accepted like every point; one rejected
    # carries no tangent, so the path takes no step.
    try:
        state.u, iters, state.tangent = newton_correct(T, S, 0.0, u, EPS1, NEWTON_CAP_PATH, state)
    except _STEP_FAILURES as exc:
        iters = exc.iterations
    state.newton_total += iters
    state.min_x = float(state.u[1:].min())

    # The jump counts in iter, not in the path's step_count (its max_steps).
    pair, status, jumped = None, "step_limit", _follow(T, S, state, config.max_steps)
    if jumped:
        try:
            pair, iters = endgame(T, S, state)
            status = "converged"
            state.min_x = min(state.min_x, float(pair.x.min()))
        except _STEP_FAILURES as exc:
            iters, status = exc.iterations, "endgame_failure"
        state.newton_total += iters
    pair = pair or EigenPair(float(state.u[0]), state.u[1:])
    # The answer.  The final y-pass, A x^{m-1}, gives the bracket on A.
    x, lam, sweeps = pair.x, pair.lam - T.alpha, 0
    y, xp = tvp(A, x), x ** (m - 1)
    lo, hi = ratio_bracket(y, xp)
    state.y_passes += 1
    if not use_perturbation:
        if not certified(lam, lo, hi):
            sweeps, answer = _finish(A, x, state)
            if answer:
                lo, hi, x, y, xp = answer
                lam, status = 0.5 * (lo + hi), "converged"
        if math.isfinite(hi - lo):
            # The bracket holds A's eigenvalue, so a lam outside it moves to the nearer end.
            lam = min(max(lam, lo), hi)
    # The reported pair's residual on A + eps, alpha cancelling, in y's place:
    # y + eps*(1.x)^{m-1} - lam*xp.
    _add_shift_terms(y, x, xp, m, -lam, T.eps)
    return SolveReport(
        "homotopy", status, EigenPair(lam, x), residual_norm=math.hypot(*y, x @ x - 1.0),
        iter=state.step_count + jumped, nwtiter=state.newton_total, alpha=T.alpha,
        lambda_shifted=lam + T.alpha, perturbed=use_perturbation, path_min_x=state.min_x,
        lam_lower=lo, lam_upper=hi, finish_sweeps=sweeps, y_passes=state.y_passes,
        jacobian_passes=state.jacobian_passes, linear_solves=state.linear_solves,
    )


def certified(lam, lo, hi):
    """Whether lam and the bracket [lo, hi] on A lie within CERT_RTOL*|lam|."""
    return max(hi, lam) - min(lo, lam) <= CERT_RTOL * abs(lam)


def _finish(A, x, state):
    """Newton-Noda sweeps on A itself (Liu, Guo and Lin, Numer. Math. 2017,
    less their step-length safeguard) from x, or the uniform vector if x is
    not positive, while the bracket narrows, at most SWEEP_CAP; a singular M
    or an x not finite and positive ends them.  Each sweep makes a y-pass,
    and one that goes on a J-pass and a LAPACK call, counted in state.
    Returns (sweeps, answer), answer the narrowest bracket's (lo, hi, x,
    A x^{m-1}, x^{[m-1]}) if it certifies its middle, else None.
    """
    m, n = A.order, A.dim
    x = x if x.min() > 0.0 else np.full(n, n**-0.5)
    best, width, sweeps = (np.nan,) * 5, np.inf, 0
    M = np.empty((n, n))
    with np.errstate(all="ignore"):
        while sweeps < SWEEP_CAP:
            sweeps += 1
            state.y_passes += 1
            y = A.tvp(x, M)
            xq = x ** (m - 2)
            xp = xq * x
            lo, hi = ratio_bracket(y, xp)
            if not hi - lo < width:
                break
            best, width = (lo, hi, x, y, xp), hi - lo
            state.jacobian_passes += 1
            A.jacobian_pass(x, M)
            # M = lam_k (m-1) diag(x^{m-2}) - J_A at lam_k = max r
            M *= -1.0
            M.reshape(-1)[:: n + 1] += hi * (m - 1) * xq
            # Not linalg.solve: its conditioning check rejects M near
            # reducibility, where these sweeps still converge.
            state.linear_solves += 1
            try:
                w = np.linalg.solve(M, xp)
            except np.linalg.LinAlgError:
                break
            x = (m - 2) * x + w / (x @ w)
            x /= math.sqrt(x @ x)
            if not np.minimum.reduce(x) > 0.0:  # NaN too
                break
    lo, hi = best[:2]
    return sweeps, (best if certified(0.5 * (lo + hi), lo, hi) else None)


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
