import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teneig import (
    EigenPair,
    EssentialNonnegativityError,
    HomotopyConfig,
    NewtonStalled,
    PositivityLost,
    ShiftedTensor,
    Tensor,
    eigen_residual,
    require_essentially_nonnegative,
    solve_dominant,
    start_pair,
    start_system,
)
from teneig.homotopy import (
    BETA,
    DTAU_MAX,
    DTAU_MIN,
    EPS1,
    EPS2,
    PathState,
    _finish,
    _j_pass,
    _y_pass,
    certified,
    endgame,
    newton_correct,
    predict,
    update_step_size,
)
from teneig.instances import dense_demo, random_instance, sparse_ring_demo
from teneig.linalg import SingularMatrixError, lu_apply, lu_factor, solve
from teneig.tensor import add_identity, rank_one_start

from oracles import (
    alpha_shift_dense,
    block2_dominant_bisect,
    fd_jacobian,
    relative_bracket,
    tvp_naive,
    weak_irreducibility_naive,
)


def system(T, S, tau, lam, x):
    """(residual, Jacobian, tau-derivative) of H_tau at (lam, x), as the
    solver evaluates them: its y-pass, then its J-pass."""
    n = x.shape[0]
    M, R = np.empty((n + 1, n + 1)), np.empty((2, n + 1))
    shared = _y_pass(T, S, tau, lam, x, M, R)
    _j_pass(T, S, tau, lam, x, M, shared)
    return R[0], M, -R[1]


def homotopy_residual(T, S, tau, lam, x):
    return system(T, S, tau, lam, x)[0]


def homotopy_jacobian(T, S, tau, lam, x):
    return system(T, S, tau, lam, x)[1]


def tau_derivative(T, S, x):
    return system(T, S, 0.0, 0.0, x)[2]


def tangent(T, S, tau, u):
    """The path tangent at u, JH g = -dH, as the corrector solves it at a
    point it accepts without an update; None where g fails solve's check."""
    _, J, dH = system(T, S, tau, u[0], u[1:])
    return solve(J, -dH[:, None])[0]


def positive_instance(m=3, n=3, seed=0):
    # T is a positive tensor as the solver's record with no shift, S the
    # homotopy's rank-one start system, never stored
    rng = np.random.default_rng(seed)
    T = ShiftedTensor(Tensor(rng.uniform(0.1, 1.0, size=(n,) * m)), 0.0)
    S = start_system(np.ones(n), np.ones(n), m)
    return T, S


def coinciding_systems():
    """(T, S) with T the start system S stored densely, as a record with no
    shift: the homotopy is then S at every tau."""
    a = np.ones(3)
    return ShiftedTensor(rank_one_start(a, a, 3), 0.0), start_system(a, a, 3)


def path_state(T, S, tau, u, dtau):
    """A PathState at u = (lam, x...) carrying its path tangent, as the solver's do."""
    u = np.asarray(u, dtype=float)
    return PathState(tau, u, tangent(T, S, tau, u), dtau)


def polished_path_point(T, S, tau_target, tol=1e-13):
    """Walk plain Newton corrections along a tau grid from the exact start."""
    n = T.A.dim
    pair = start_pair(np.ones(n), np.ones(n), T.A.order)
    u = np.concatenate([[pair.lam], pair.x])
    for tau in np.linspace(0.0, tau_target, 11)[1:]:
        u, _, _ = newton_correct(T, S, float(tau), u, tol, 100)
    return u


# ---------------------------------------------------------------- config/type


def test_config_validation():
    with pytest.raises(ValueError):
        HomotopyConfig(eps_perturb=0.0)
    with pytest.raises(ValueError):
        HomotopyConfig(max_steps=0)


# ---------------------------------------------------------- residual/jacobian


def test_residual_endpoints_match_component_systems():
    T, S = positive_instance(seed=1)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 1.0, size=3)
    lam = 4.2
    q = eigen_residual(T.A, lam, x)
    p = eigen_residual(rank_one_start(np.ones(3), np.ones(3), 3), lam, x)
    assert np.array_equal(homotopy_residual(T, S, 1.0, lam, x), q)
    assert np.allclose(homotopy_residual(T, S, 0.0, lam, x), p, rtol=1e-14, atol=0)


def test_residual_is_convex_combination():
    T, S = positive_instance(seed=3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(0.1, 1.0, size=3)
        lam = rng.uniform(0.5, 10.0)
        h = homotopy_residual(T, S, 0.5, lam, x)
        p = eigen_residual(rank_one_start(np.ones(3), np.ones(3), 3), lam, x)
        combo = 0.5 * p + 0.5 * eigen_residual(T.A, lam, x)
        assert np.abs(h - combo).max() <= 1e-14 * max(1.0, np.abs(combo).max())


def test_residual_zero_at_start_system_solution():
    T, _ = positive_instance(seed=5)
    rng = np.random.default_rng(6)
    a = rng.uniform(0.5, 2.0, size=3)
    b = rng.uniform(0.5, 2.0, size=3)
    S = start_system(a, b, 3)
    pair = start_pair(a, b, 3)
    r = homotopy_residual(T, S, 0.0, pair.lam, pair.x)
    assert np.linalg.norm(r) <= 1e-12 * max(1.0, pair.lam)


def test_jacobian_matches_finite_differences_at_interior_points():
    for m, n, seed in ((2, 4, 7), (3, 3, 8), (4, 2, 9)):
        T, S = positive_instance(m, n, seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            tau = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.5, 8.0)
            x = rng.uniform(0.2, 1.5, size=n)
            J = homotopy_jacobian(T, S, tau, lam, x)
            f = lambda u: homotopy_residual(T, S, tau, u[0], u[1:])
            Jfd = fd_jacobian(f, np.concatenate([[lam], x]))
            assert np.abs(J - Jfd).max() <= 1e-6 * max(1.0, np.abs(J).max())


def test_jacobian_matrix_case_blocks():
    T, S = positive_instance(m=2, n=3, seed=10)
    tau, lam = 0.3, 2.5
    x = np.array([0.1, -0.4, 0.9])
    J = homotopy_jacobian(T, S, tau, lam, x)
    blend = tau * T.A.data + (1 - tau) * rank_one_start(np.ones(3), np.ones(3), 2).data - lam * np.eye(3)
    assert np.allclose(J[:3, 1:], blend, atol=1e-15)
    assert np.array_equal(J[:3, 0], -x)
    assert J[3, 0] == 0.0
    assert np.array_equal(J[3, 1:], 2 * x)


def test_jacobian_nonsingular_on_path():
    T, S = positive_instance(seed=11)
    u = polished_path_point(T, S, 0.5)
    J = homotopy_jacobian(T, S, 0.5, u[0], u[1:])
    fact = lu_factor(J)
    assert not fact.singular
    pivot_ratio = np.abs(np.diag(fact.lu)).min() / np.abs(J).max()
    assert pivot_ratio > 1e-10


def test_system_from_closed_form_operators_matches_dense_tensors():
    # the solver's T = (A + eps) + alpha*I is a record over A whose shift the
    # passes add in closed form; the system is the one of T stored densely
    # (taken with no shift), at every tau and for the tau-derivative too
    rng = np.random.default_rng(40)
    A = random_instance(3, 4, seed=41)
    a = rng.uniform(0.5, 2.0, size=4)
    b = rng.uniform(0.5, 2.0, size=4)
    S = start_system(a, b, 3)
    for eps in (0.0, 1e-3):
        dense = ShiftedTensor(Tensor(alpha_shift_dense(A.data, eps)[1]), 0.0)
        T = ShiftedTensor(A, require_essentially_nonnegative(A)[0], eps)
        x = rng.uniform(0.2, 1.0, size=4)
        for tau in (0.0, 0.4, 1.0):
            for got, want in zip(system(T, S, tau, 7.5, x), system(dense, S, tau, 7.5, x)):
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_system_assembly_holds_few_n_by_n_temporaries():
    # one whole iterate that updates, and the y-pass of the next: the y-pass
    # leaves T's mode-2 term in the system matrix M, the J-pass completes M
    # in place, and one LAPACK call on (r, -dH) gives the step and the
    # tangent; M, S's Jacobian or LAPACK's copy of M and the kernel's own
    # per-block temporaries are the n-by-n arrays alive at the peak, not the
    # sums between
    import tracemalloc

    A = random_instance(3, 120, seed=42)
    n = A.dim
    alpha = require_essentially_nonnegative(A)[0]
    T, S = ShiftedTensor(A, alpha), start_system(np.ones(n), np.ones(n), 3)
    # near the blend's Perron value (about 11520), so the update stays in
    # the positive cone and the next y-pass runs
    u0 = np.concatenate([[11520.0], np.full(n, n**-0.5)])

    def one_update():
        with pytest.raises(NewtonStalled):
            newton_correct(T, S, 0.4, u0, 1e-300, 1)

    one_update()  # warm-up: the kernel's thread pool and caches
    tracemalloc.start()
    try:
        one_update()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n * n


# -------------------------------------------------------------- tau derivative


def test_tau_derivative_zero_when_systems_coincide():
    # at x = 1 both contractions are exact
    T, S = coinciding_systems()
    assert np.array_equal(tau_derivative(T, S, np.ones(3)), np.zeros(4))


def test_tau_derivative_matches_finite_difference_in_tau():
    T, S = positive_instance(seed=13)
    x = np.array([0.7, 0.2, 1.1])
    lam = 3.3
    h = 1e-6
    fd = (
        homotopy_residual(T, S, 0.5 + h, lam, x)
        - homotopy_residual(T, S, 0.5 - h, lam, x)
    ) / (2 * h)
    assert np.abs(tau_derivative(T, S, x) - fd).max() <= 1e-8


def test_tau_derivative_sparse_demo_frozen():
    T = Tensor(alpha_shift_dense(sparse_ring_demo().data)[1])
    S = start_system(np.ones(3), np.ones(3), 3)
    x0 = np.ones(3) / np.sqrt(3.0)
    d = tau_derivative(ShiftedTensor(T, 0.0), S, x0)
    expected = tvp_naive(T.data, x0) - tvp_naive(rank_one_start(np.ones(3), np.ones(3), 3).data, x0)
    assert np.allclose(expected, [-7.0 / 3.0, -7.0 / 3.0, -5.0 / 3.0], atol=1e-14)
    assert np.allclose(d[:3], expected, atol=1e-13)
    assert d[3] == 0.0


# ------------------------------------------------------------------ predictor


def test_predict_zero_step_returns_current_point():
    T, S = positive_instance(seed=14)
    pair = start_pair(np.ones(3), np.ones(3), 3)
    state = path_state(T, S, 0.0, np.concatenate([[pair.lam], pair.x]), 0.1)
    u = predict(state, dtau=0.0)
    assert np.array_equal(u, np.concatenate([[pair.lam], pair.x]))


def test_predict_stationary_when_systems_coincide():
    T, S = coinciding_systems()
    pair = start_pair(np.ones(3), np.ones(3), 3)
    state = path_state(T, S, 0.2, np.concatenate([[pair.lam], pair.x]), 0.3)
    u = predict(state, state.dtau)
    assert np.allclose(u, np.concatenate([[pair.lam], pair.x]), atol=1e-14)


def test_predict_is_second_order_in_step():
    T, S = positive_instance(seed=16)
    tau = 0.3
    u = polished_path_point(T, S, tau)
    state = path_state(T, S, tau, u, 0.08)
    residuals = []
    for dtau in (0.08, 0.04):
        ubar = predict(state, dtau=dtau)
        residuals.append(
            np.linalg.norm(homotopy_residual(T, S, tau + dtau, ubar[0], ubar[1:]))
        )
    ratio = residuals[0] / residuals[1]
    assert 2.5 <= ratio <= 6.0


def test_corrector_hands_on_the_predictors_tangent(monkeypatch):
    # after no update, the tangent newton_correct returns is the one solved
    # for at the accepted point, bit for bit; after updates, it is the second
    # column of the last update's LAPACK call, whose first is the step to the
    # accepted point; predict steps along it
    from teneig import homotopy

    T, S = positive_instance(seed=16)
    u = polished_path_point(T, S, 0.3)
    v, iters, g = newton_correct(T, S, 0.3, u, 1e-5, 10)
    assert iters == 0
    assert np.array_equal(g, tangent(T, S, 0.3, v))
    iterates = []
    real = homotopy._y_pass

    def recorded(T, S, tau, lam, x, M, R):
        iterates.append(np.concatenate([[lam], x]))
        return real(T, S, tau, lam, x, M, R)

    monkeypatch.setattr(homotopy, "_y_pass", recorded)
    w, iters, g = newton_correct(T, S, 0.3, u + 1e-3, 1e-10, 10)
    assert iters == len(iterates) - 1 >= 2
    r, J, dH = system(T, S, 0.3, iterates[-2][0], iterates[-2][1:])
    step, want = np.linalg.solve(J, np.stack([r, -dH], axis=1)).T
    assert np.array_equal(w, iterates[-2] - step)
    assert np.array_equal(g, want)
    assert np.array_equal(predict(PathState(0.3, v, g, 0.1), dtau=1.0), v + g)
    # at tau = 1 the path ends, so no tangent is solved for
    pair = start_pair(np.ones(3), np.ones(3), 3)
    u0 = np.concatenate([[pair.lam], pair.x])
    T, S = coinciding_systems()
    assert newton_correct(T, S, 0.5, u0, 1e-5, 10)[2] is not None
    assert newton_correct(T, S, 1.0, u0, 1e-5, 10)[2] is None


# ------------------------------------------------------------------ corrector


def test_newton_accepts_point_already_within_tolerance():
    T, S = positive_instance(seed=17)
    u = polished_path_point(T, S, 0.4)
    out, iters, _ = newton_correct(T, S, 0.4, u, 1e-5, 10)
    assert iters == 0
    assert np.array_equal(out, u)


def test_newton_converges_fast_from_nearby_point():
    T, S = positive_instance(seed=18)
    u = polished_path_point(T, S, 0.5)
    rng = np.random.default_rng(19)
    delta = rng.standard_normal(4)
    delta *= 1e-3 / np.linalg.norm(delta)
    _, iters, _ = newton_correct(T, S, 0.5, u + delta, 1e-10, 10)
    assert iters <= 4


def test_newton_quadratic_residual_decay():
    T, S = positive_instance(seed=20)
    tau = 0.5
    u = polished_path_point(T, S, tau)
    rng = np.random.default_rng(21)
    delta = rng.standard_normal(4)
    delta *= 5e-2 / np.linalg.norm(delta)
    v = u + delta
    residuals = [np.linalg.norm(homotopy_residual(T, S, tau, v[0], v[1:]))]
    for _ in range(6):
        J = homotopy_jacobian(T, S, tau, v[0], v[1:])
        v = v - lu_apply(lu_factor(J), homotopy_residual(T, S, tau, v[0], v[1:]))
        residuals.append(np.linalg.norm(homotopy_residual(T, S, tau, v[0], v[1:])))
        if residuals[-1] < 1e-14:
            break
    observed = [
        (r0, r1) for r0, r1 in zip(residuals, residuals[1:]) if 1e-8 < r0 <= 1e-2
    ]
    assert observed, "no residuals in the quadratic window"
    for r0, r1 in observed:
        assert r1 <= 100.0 * r0**2


def test_newton_cap_exceeded_is_distinct():
    T, S = positive_instance(seed=22)
    u = polished_path_point(T, S, 0.5)
    with pytest.raises(NewtonStalled) as err:
        newton_correct(T, S, 0.5, u + 0.5, 1e-18, 3)
    assert err.value.iterations == 3


def test_newton_stops_at_its_first_iterate_off_the_positive_cone():
    # the first update from u0 takes x out of the cone, so the correction is
    # rejected there: one y-pass, one J-pass and one LAPACK call, where
    # iterating on would head for a sign-mixed eigenpair of the blend
    T, S = positive_instance(seed=25)
    u0 = np.concatenate([[polished_path_point(T, S, 0.5)[0]], [0.1, 0.7, 0.7]])
    r, J, _ = system(T, S, 0.5, u0[0], u0[1:])
    assert (u0 - np.linalg.solve(J, r))[1:].min() <= 0.0
    state = PathState(0.5, u0, None, 0.0)
    with pytest.raises(PositivityLost) as err:
        newton_correct(T, S, 0.5, u0, 1e-10, 10, state)
    assert err.value.iterations == 1
    assert (state.y_passes, state.jacobian_passes, state.linear_solves) == (1, 1, 1)


def test_newton_rejects_an_off_cone_point_it_accepts_without_an_update():
    # a tolerance this loose accepts u0 at its first y-pass, but its x is off
    # the cone, so the point is rejected before its tangent is solved
    T, S = positive_instance(seed=25)
    u0 = np.concatenate([[polished_path_point(T, S, 0.5)[0]], [0.1, -0.7, 0.7]])
    state = PathState(0.5, u0, None, 0.0)
    with pytest.raises(PositivityLost) as err:
        newton_correct(T, S, 0.5, u0, 1e300, 10, state)
    assert err.value.iterations == 0
    assert (state.y_passes, state.jacobian_passes, state.linear_solves) == (1, 0, 0)


def test_newton_singular_jacobian_is_distinct():
    T, S = positive_instance(seed=23)
    u0 = np.zeros(4)
    u0[0] = 1.0
    with pytest.raises(SingularMatrixError):
        newton_correct(T, S, 0.5, u0, 1e-10, 10)


def test_newton_near_singular_jacobian_is_distinct():
    # m = 2 and x = 1e-15 * 1: the Jacobian's first column and last row are
    # 1e-15 of its other entries, a relative pivot far below PIVOT_RTOL
    T, S = positive_instance(m=2, n=3, seed=23)
    u0 = np.concatenate([[1.0], np.full(3, 1e-15)])
    fact = lu_factor(homotopy_jacobian(T, S, 0.5, u0[0], u0[1:]))
    assert fact.singular and fact.pivot_index == 0
    with pytest.raises(SingularMatrixError) as err:
        newton_correct(T, S, 0.5, u0, 1e-10, 10)
    assert err.value.pivot_index is None
    assert err.value.iterations == 0


def test_newton_validates_arguments():
    T, S = positive_instance(seed=24)
    with pytest.raises(ValueError):
        newton_correct(T, S, 0.5, np.ones(4), -1.0, 10)
    with pytest.raises(ValueError):
        newton_correct(T, S, 0.5, np.ones(4), 1e-5, 0)


# -------------------------------------------------------------- step control


def test_step_halves_after_slow_newton():
    state = PathState(tau=0.3, u=np.ones(4), tangent=None, dtau=0.1)
    assert update_step_size(state, 5) == 0.05
    assert state.last_two_uncut[-1] is False


def test_step_doubles_after_two_uncut_steps_with_cap():
    state = PathState(
        tau=0.3, u=np.ones(4), tangent=None, dtau=0.3, last_two_uncut=(False, True)
    )
    assert update_step_size(state, 2) == DTAU_MAX == 0.4  # doubled then capped


def test_step_floor_holds():
    state = PathState(tau=0.3, u=np.ones(4), tangent=None, dtau=1e-6)
    assert update_step_size(state, 5) == DTAU_MIN == 1e-6


def test_step_unchanged_on_first_uncut_step():
    state = PathState(tau=0.0, u=np.ones(4), tangent=None, dtau=0.1)
    assert update_step_size(state, 2) == 0.1  # only one uncut step so far
    assert update_step_size(state, 3) == 0.2  # second uncut step doubles


@given(
    st.floats(1e-6, 0.4),
    st.integers(0, 12),
    st.tuples(st.booleans(), st.booleans()),
)
def test_step_update_stays_clamped(dtau, iters, window):
    state = PathState(tau=0.5, u=np.ones(3), tangent=None, dtau=dtau, last_two_uncut=window)
    out = update_step_size(state, iters)
    assert DTAU_MIN <= out <= DTAU_MAX


# -------------------------------------------------------------------- endgame


def test_endgame_trivial_when_systems_coincide():
    T, S = coinciding_systems()
    pair = start_pair(np.ones(3), np.ones(3), 3)
    state = path_state(T, S, BETA, np.concatenate([[pair.lam], pair.x]), 1.0 - BETA)
    got, iters = endgame(T, S, state)
    assert iters == 0
    assert got.lam == pytest.approx(pair.lam, abs=1e-12)
    assert np.allclose(got.x, pair.x, atol=1e-12)


def test_a_failed_jump_is_finished_on_the_input(monkeypatch):
    # the one jump stalls; the Newton-Noda finish on A, from the path's x at
    # beta, then certifies the answer
    from teneig import homotopy

    real = homotopy.endgame
    betas = []

    def stalls_once(T, S, state):
        betas.append(state.tau)
        if len(betas) == 1:
            raise NewtonStalled(3)
        return real(T, S, state)

    monkeypatch.setattr(homotopy, "endgame", stalls_once)
    A = dense_demo()
    rep = solve_dominant(A)
    assert rep.status == "converged" and not rep.perturbed
    assert betas == [0.9999]
    # 5 path steps and the jump; the failed jump's 3 Newton iterations count
    assert (rep.iter, rep.nwtiter) == (6, 13)
    assert rep.finish_sweeps > 0
    assert rep.lam_lower <= rep.eigen.lam <= rep.lam_upper
    assert relative_bracket(A.data, rep.eigen.lam, rep.eigen.x) <= 1e-14
    assert rep.lambda_shifted == rep.eigen.lam + rep.alpha
    T = Tensor(alpha_shift_dense(A.data)[1])
    r = np.linalg.norm(eigen_residual(T, rep.lambda_shifted, rep.eigen.x))
    assert r == pytest.approx(rep.residual_norm, abs=1e-13)


def test_certified_needs_lambda_inside_the_widened_bracket():
    # scaled(6,5)d=20 once reported lambda = -7.36e-13 beside a bracket of
    # [1.546e-17, 1.570e-17]: narrow, but far from lambda
    assert not certified(-7.36e-13, 1.546e-17, 1.570e-17)
    assert not certified(1.55e-17, 1.546e-17, 1.570e-17)  # 1.5% wide
    assert certified(1.0, 1.0 - 4e-7, 1.0 + 4e-7)
    assert certified(1.0 + 9e-7, 1.0, 1.0)
    assert not certified(1.0 + 2e-6, 1.0, 1.0)
    assert not any(certified(*v) for v in [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)])


@pytest.mark.parametrize("fault", ["singular", "nan", "zero"])
def test_the_finish_stops_quietly_and_keeps_an_uncertified_report(monkeypatch, fault):
    # a singular M, a non-finite w or x.w = 0 ends the sweeps (warnings are
    # errors in this suite); the open bracket is no answer, so the driver
    # keeps the path's
    from teneig import homotopy

    def solve(M, rhs):
        if fault == "singular":
            raise np.linalg.LinAlgError("singular")
        return np.full_like(rhs, np.nan if fault == "nan" else 0.0)

    monkeypatch.setattr(homotopy.np.linalg, "solve", solve)
    state = PathState(1.0, np.ones(4), None, 0.0)
    assert _finish(dense_demo(), np.full(3, 3**-0.5), state) == (1, None)
    # the one sweep's passes and LAPACK call count in the path's state
    assert (state.y_passes, state.jacobian_passes, state.linear_solves) == (1, 1, 1)


def test_the_finish_starts_from_the_uniform_vector_when_x_is_not_positive():
    A, state = dense_demo(), PathState(1.0, np.ones(4), None, 0.0)
    sweeps, (lo, hi, x, y, xp) = _finish(A, np.array([1.0, 0.0, 0.0]), state)
    assert sweeps > 2 and state.y_passes == sweeps
    assert 0.5 * (lo + hi) == pytest.approx(36.27571901815835, rel=1e-14)
    assert certified(0.5 * (lo + hi), lo, hi)
    assert np.array_equal(y, A.tvp(x)) and np.array_equal(xp, x * x)


# --------------------------------------------------------------------- driver


def test_step_size_floor_ends_in_step_limit(monkeypatch):
    # the start is accepted at tau = 0, then every correction stalls after
    # one Newton iteration, so the first step halves from 0.1 down to
    # DTAU_MIN = 1e-6 (17 tries) and fails there once more; a perturbed solve
    # keeps the path's status, and the finish on A certifies an unperturbed
    # one from the start vector
    from teneig import homotopy

    real = homotopy.newton_correct

    def stalls(T, S, tau, u0, tol, cap, state=None):
        if tau == 0.0:
            return real(T, S, tau, u0, tol, cap, state)
        raise NewtonStalled(1)

    monkeypatch.setattr(homotopy, "newton_correct", stalls)
    for assume, status in (("reducible", "step_limit"), ("auto", "converged")):
        rep = solve_dominant(dense_demo(), assume=assume)
        assert rep.status == status
        assert (rep.finish_sweeps > 0) is (assume == "auto")
        assert rep.iter == rep.nwtiter == 18


def _count_kernel_calls(monkeypatch, name="tvp"):
    # the passes over A: Tensor.tvp, the y-pass, or Tensor.jacobian_pass
    calls = []
    real = getattr(Tensor, name)

    def counted(self, x, *out):
        calls.append(x)
        return real(self, x, *out)

    monkeypatch.setattr(Tensor, name, counted)
    return calls


def test_a_point_with_a_singular_jacobian_carries_no_tangent(monkeypatch):
    # the start point's Jacobian is zeroed, so it carries no tangent and the
    # path ends before its first step: the start's y-pass and LAPACK call
    # are the path's only work
    from teneig import homotopy

    real = homotopy._j_pass

    def singular_at_start(T, S, tau, lam, x, M, shared):
        real(T, S, tau, lam, x, M, shared)
        if tau == 0.0:
            M[:] = 0.0

    monkeypatch.setattr(homotopy, "_j_pass", singular_at_start)
    calls = _count_kernel_calls(monkeypatch)
    rep = solve_dominant(dense_demo(), assume="reducible")
    assert rep.status == "step_limit"
    assert (rep.iter, rep.nwtiter) == (0, 0)
    # with the final residual's y-pass
    assert (rep.y_passes, rep.jacobian_passes, rep.linear_solves) == (2, 0, 1)
    assert len(calls) == 2
    # unperturbed, the finish certifies the answer with a y-pass of A per sweep
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged" and rep.finish_sweeps > 0
    assert (rep.iter, rep.nwtiter) == (0, 0)
    assert rep.y_passes == 2 + rep.finish_sweeps
    assert len(calls) == 2 + rep.y_passes


def test_a_mid_path_tangent_failure_is_a_rejected_step(monkeypatch):
    # the third two-column LAPACK call, the one update of the third step's
    # correction, loses its tangent column; that correction is rejected like
    # any other, the halved step is corrected afresh, and every prediction
    # gets a correction: 2 + iter + nwtiter y-passes, with no finish
    from teneig import homotopy

    A = random_instance(3, 10, seed=1)
    rep = solve_dominant(A)
    assert (rep.iter, rep.nwtiter) == (6, 8)
    real_solve, real_correct = homotopy.solve, homotopy.newton_correct
    calls, rejected = [], []

    def drops_a_tangent(M, rhs):
        out = real_solve(M, rhs)
        calls.append(rhs.shape[1])
        return [out[0], None] if calls.count(2) == 3 and rhs.shape[1] == 2 else out

    def recorded(*args):
        try:
            return real_correct(*args)
        except homotopy._STEP_FAILURES as exc:
            rejected.append(exc)
            raise

    monkeypatch.setattr(homotopy, "solve", drops_a_tangent)
    monkeypatch.setattr(homotopy, "newton_correct", recorded)
    rep = solve_dominant(A)
    assert rep.status == "converged" and rep.finish_sweeps == 0
    assert [(type(exc), exc.iterations) for exc in rejected] == [(SingularMatrixError, 1)]
    assert (rep.iter, rep.nwtiter) == (8, 9)
    assert rep.y_passes == 2 + rep.iter + rep.nwtiter


@pytest.mark.parametrize("A", [dense_demo(), random_instance(3, 20, seed=40)])
def test_each_accepted_point_is_evaluated_once(monkeypatch, A):
    # with no rejection: the start is one more accepted point, at tau = 0; a
    # y-pass at every Newton iterate (each of the start's, the iter steps'
    # and the jump's corrections ends in one more than its updates) and for
    # the final residual; a J-pass and a LAPACK call per update, and per
    # point accepted before tau = 1 without one, for its tangent; the start's
    # LAPACK call needs no J-pass, T's Jacobian having weight 0 at tau = 0
    from teneig import homotopy

    real = homotopy.newton_correct
    accepted = []

    def recorded(T, S, tau, u0, tol, cap, state=None):
        u, iters, g = real(T, S, tau, u0, tol, cap, state)
        accepted.append((tau, iters))
        return u, iters, g

    monkeypatch.setattr(homotopy, "newton_correct", recorded)
    rep = solve_dominant(A)
    assert rep.status == "converged" and rep.finish_sweeps == 0
    assert len(accepted) == 1 + rep.iter and accepted[0] == (0.0, 0)
    at_rest = sum(iters == 0 for tau, iters in accepted if tau < 1.0)
    assert rep.y_passes == 2 + rep.iter + rep.nwtiter
    assert rep.jacobian_passes == rep.nwtiter + at_rest - 1
    assert rep.linear_solves == rep.nwtiter + at_rest


def test_the_start_point_is_corrected_like_every_point(monkeypatch):
    # a start lambda 0.1% off its closed form is not within EPS1, so the
    # corrector updates the start at tau = 0, before the first step, as it
    # would any predicted point, and counts its iterations in nwtiter
    from teneig import homotopy

    real_start, real_correct = homotopy.start_pair, homotopy.newton_correct
    corrections = []

    def off_start(a, b, order):
        pair = real_start(a, b, order)
        return EigenPair(1.001 * pair.lam, pair.x)

    def recorded(T, S, tau, u0, tol, cap, state=None):
        u, iters, g = real_correct(T, S, tau, u0, tol, cap, state)
        corrections.append((tau, iters))
        return u, iters, g

    monkeypatch.setattr(homotopy, "start_pair", off_start)
    monkeypatch.setattr(homotopy, "newton_correct", recorded)
    rep = solve_dominant(dense_demo())
    tau, iters = corrections[0]
    assert tau == 0.0 and iters >= 1
    assert rep.status == "converged"
    assert rep.eigen.lam == pytest.approx(36.2757, abs=5e-4)
    assert rep.y_passes == 2 + rep.iter + rep.nwtiter


def test_rejected_first_step_reuses_the_start_tangent(monkeypatch):
    # the first step after the start stalls once; the start's y-pass is its
    # only pass over A before either correction, the retry's included
    from teneig import homotopy

    calls = _count_kernel_calls(monkeypatch)
    jacobians = _count_kernel_calls(monkeypatch, "jacobian_pass")
    real = homotopy.newton_correct
    at_entry = []

    def stalls_once(T, S, tau, u0, tol, cap, state=None):
        at_entry.append((len(calls), len(jacobians)))
        if len(at_entry) == 2:
            raise NewtonStalled(0)
        return real(T, S, tau, u0, tol, cap, state)

    monkeypatch.setattr(homotopy, "newton_correct", stalls_once)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged"
    assert at_entry[:3] == [(0, 0), (1, 0), (1, 0)]


def test_rejected_step_reuses_the_tangent(monkeypatch):
    # the second step stalls once before any evaluation; its retry predicts
    # from the same accepted point without evaluating the tangent again
    from teneig import homotopy

    calls = _count_kernel_calls(monkeypatch)
    jacobians = _count_kernel_calls(monkeypatch, "jacobian_pass")
    real = homotopy.newton_correct
    at_entry = []

    def stalls_once(T, S, tau, u0, tol, cap, state=None):
        at_entry.append((len(calls), len(jacobians)))
        if len(at_entry) == 3:
            raise NewtonStalled(0)
        return real(T, S, tau, u0, tol, cap, state)

    monkeypatch.setattr(homotopy, "newton_correct", stalls_once)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged"
    assert at_entry[3] == at_entry[2]
    # the start, every iterate of the iter - 1 corrections and the residual
    assert len(calls) == 2 + (rep.iter - 1) + rep.nwtiter == rep.y_passes
    assert len(jacobians) == rep.jacobian_passes


def test_rejected_clipped_step_retries_half_its_length(monkeypatch):
    # dense_demo's path reaches tau = 0.8 with step length 0.4, so its step to
    # beta is clipped to 0.1999; half of 0.4 would still clip to beta, so a
    # rejection there must halve the clipped length instead
    from teneig import homotopy

    real = homotopy.newton_correct
    targets = []

    def stalls_at_beta_once(T, S, tau, u0, tol, cap, state=None):
        targets.append(tau)
        if tau == BETA and targets.count(tau) == 1:
            raise NewtonStalled(0)
        return real(T, S, tau, u0, tol, cap, state)

    monkeypatch.setattr(homotopy, "newton_correct", stalls_at_beta_once)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged"
    failed = targets.index(BETA)
    assert targets[failed - 1] == pytest.approx(0.8, abs=1e-12)
    assert targets[failed + 1] == pytest.approx(0.8 + 0.5 * (BETA - 0.8), abs=1e-12)


def test_solve_matrix_hand_case():
    A = Tensor(np.array([[-1.0, 2.0], [3.0, -2.0]]))
    rep = solve_dominant(A)
    assert rep.status == "converged"
    assert rep.eigen.lam == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(rep.eigen.x, np.ones(2) / np.sqrt(2.0), atol=1e-10)
    assert rep.alpha == 3.0
    assert not rep.perturbed


def test_solve_reports_shifted_eigenvalue_and_residual():
    A = dense_demo()
    rep = solve_dominant(A)
    assert rep.lambda_shifted == pytest.approx(rep.eigen.lam + rep.alpha, abs=1e-10)
    T = Tensor(alpha_shift_dense(A.data)[1])
    r = np.linalg.norm(eigen_residual(T, rep.lambda_shifted, rep.eigen.x))
    assert r == pytest.approx(rep.residual_norm, rel=1e-6, abs=1e-14)
    assert rep.residual_norm <= 1e-10


def test_solve_shift_covariance():
    A = random_instance(3, 4, seed=30)
    base = solve_dominant(A)
    for c in (0.7, 2.5):
        shifted = solve_dominant(add_identity(A, c))
        assert abs(shifted.eigen.lam - (base.eigen.lam + c)) <= 1e-8
        assert np.abs(shifted.eigen.x - base.eigen.x).max() <= 1e-8


def test_solve_scale_covariance():
    A = random_instance(3, 4, seed=31)
    base = solve_dominant(A)
    for t in (0.25, 3.0):
        scaled = solve_dominant(Tensor(t * A.data))
        assert abs(scaled.eigen.lam - t * base.eigen.lam) <= 1e-8
        assert np.abs(scaled.eigen.x - base.eigen.x).max() <= 1e-8


def test_solve_monotone_in_entries():
    rng = np.random.default_rng(32)
    for seed in range(3):
        A = Tensor(np.random.default_rng(seed).uniform(0.0, 1.0, size=(4, 4, 4)))
        R = Tensor(rng.uniform(0.0, 0.3, size=(4, 4, 4)))
        B = Tensor(A.data + R.data)
        la = solve_dominant(A).eigen.lam
        lb = solve_dominant(B).eigen.lam
        assert lb > la + 1e-10


def test_solve_block_diagonal_reducible(accepted_points):
    rng = np.random.default_rng(33)
    data = np.zeros((4, 4, 4))
    b1 = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    b2 = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    data[np.ix_([0, 1], [0, 1], [0, 1])] = b1
    data[np.ix_([2, 3], [2, 3], [2, 3])] = b2
    rep = solve_dominant(Tensor(data))
    assert rep.perturbed
    assert rep.status == "converged"
    expected = max(block2_dominant_bisect(b1), block2_dominant_bisect(b2))
    assert abs(rep.eigen.lam - expected) <= 1e-6
    # the perturbed tensor is positive, so the whole path and the output
    # eigenvector stay strictly positive
    assert rep.eigen.x.min() > 0.0
    assert rep.path_min_x > 0.0
    assert all(u[1:].min() > 0.0 for _, u in accepted_points)


def test_solve_respects_assume_flag():
    A = dense_demo()
    rep = solve_dominant(A, assume="reducible")
    assert rep.perturbed and rep.status == "converged"
    assert rep.eigen.lam == pytest.approx(36.2757, abs=5e-4)
    with pytest.raises(ValueError):
        solve_dominant(A, assume="maybe")


def test_solve_path_positivity_and_normalization(accepted_points):
    for A in (dense_demo(), random_instance(3, 5, seed=34)):
        accepted_points.clear()
        rep = solve_dominant(A)
        assert rep.status == "converged"
        assert len(accepted_points) >= 2
        assert rep.path_min_x > 0.0
        for _, u in accepted_points:
            assert u[1:].min() > 0.0
            assert abs(u[1:] @ u[1:] - 1.0) <= EPS1
        # the path reaches BETA, then the endgame jumps to 1
        assert accepted_points[-2][0] >= BETA
        assert accepted_points[-1][0] == 1.0
        assert abs(rep.eigen.x @ rep.eigen.x - 1.0) <= EPS2


def test_solve_step_limit_status():
    # unperturbed, the finish certifies the answer from the path's x at tau = 0.1
    rep = solve_dominant(dense_demo(), config=HomotopyConfig(max_steps=1), assume="reducible")
    assert rep.status == "step_limit"
    assert rep.iter == 1
    rep = solve_dominant(dense_demo(), config=HomotopyConfig(max_steps=1))
    assert rep.status == "converged" and rep.finish_sweeps > 0
    assert rep.iter == 1


def _cancellation(k):
    # [[-1, b], [b, -1]], b = 1 + 2^-k, has lambda = 2^-k; near k = 40 rounding
    # holds the bracket at any x about 1e-4 wide, so nothing certifies it
    b = 1.0 + 2.0**-k
    return Tensor(np.array([[-1.0, b], [b, -1.0]]))


def test_solve_endgame_failure_when_the_finish_cannot_certify(monkeypatch):
    # every jump stalls, and the finish's sweeps cannot close the bracket, so
    # the report keeps the path's point, bracket and status
    from teneig import homotopy

    def stalls(T, S, state):
        raise NewtonStalled(1)

    monkeypatch.setattr(homotopy, "endgame", stalls)
    rep = solve_dominant(_cancellation(40))
    assert rep.status == "endgame_failure" and not rep.perturbed
    assert rep.finish_sweeps > 0
    assert rep.lam_upper - rep.lam_lower > 1e-6 * abs(rep.eigen.lam)
    assert rep.residual_norm > 1e-16


@pytest.mark.parametrize("seed", [15, 5, 13, 4])
def test_log_uniform_inputs_whose_jump_fails_are_finished(monkeypatch, seed):
    # entries over twelve decades: the one jump stalls, and the finish on A,
    # unperturbed, certifies the path's point at beta; no fault is injected,
    # the wrapper only records the beta the jump starts from and its outcome
    from teneig import homotopy

    A = Tensor(10.0 ** np.random.default_rng(seed).uniform(-6, 6, (8, 8, 8)))
    real = homotopy.endgame
    jumps = []

    def recorded(T, S, state):
        jumps.append(state.tau)
        try:
            return real(T, S, state)
        except NewtonStalled:
            jumps.append("stalled")
            raise

    monkeypatch.setattr(homotopy, "endgame", recorded)
    rep = solve_dominant(A)
    assert (jumps, rep.status, rep.perturbed) == ([0.9999, "stalled"], "converged", False)
    assert rep.finish_sweeps > 0
    assert rep.eigen.x.min() > 0
    assert rep.lam_upper - rep.lam_lower <= 2e-15 * rep.eigen.lam
    assert relative_bracket(A.data, rep.eigen.lam, rep.eigen.x) <= 1e-14


# The dominant eigenvalue of random_instance(3, 10, seed=1).
SCALED_LAMBDA = 49.30685148335562


@pytest.mark.parametrize("k", [-16, -12, 0, 4, 6, 8])
def test_solve_is_right_at_every_scale(k):
    lam = SCALED_LAMBDA * 10.0**k
    rep = solve_dominant(Tensor(random_instance(3, 10, seed=1).data * 10.0**k))
    assert rep.status == "converged"
    assert abs(rep.eigen.lam - lam) <= 1e-6 * lam


@pytest.mark.parametrize("k", [200, 300])
def test_the_residual_is_finite_at_huge_scales(k):
    # the path's own passes still overflow there (ROADMAP item 3), but the
    # reported pair's residual is taken without squaring its components
    with np.errstate(all="ignore"):
        rep = solve_dominant(Tensor(random_instance(3, 10, seed=1).data * 10.0**k))
    assert np.isfinite(rep.residual_norm)


def test_a_clamped_report_carries_the_residual_of_its_own_lambda(monkeypatch):
    # scaled_small's scaled(3,10)d=2 at seed 2: the path's lambda lies above
    # its bracket and moves to the upper end; the residual is that of the
    # reported (lambda_shifted, x) on the dense T, not of the path's lambda
    from teneig import homotopy

    real, path_lams = homotopy.endgame, []

    def recorded(T, S, state):
        pair, iters = real(T, S, state)
        path_lams.append(pair.lam - T.alpha)
        return pair, iters

    monkeypatch.setattr(homotopy, "endgame", recorded)
    A = random_instance(3, 10, d=2, seed=2464207981)
    rep = solve_dominant(A)
    assert (rep.status, rep.perturbed, rep.finish_sweeps) == ("converged", False, 0)
    assert path_lams[0] > rep.lam_upper == rep.eigen.lam > rep.lam_lower
    x = rep.eigen.x
    y = alpha_shift_dense(A.data)[1] @ x @ x  # T x^2, numpy alone
    r = np.linalg.norm(np.append(y - rep.lambda_shifted * x**2, x @ x - 1.0))
    # the residual of the path's lambda, 1.821e-11 against 1.717e-11, is 6% off
    assert rep.residual_norm == pytest.approx(r, rel=1e-4)


def test_solve_scans_the_input_once(monkeypatch):
    # the finish after a failed jump reads A through its kernel alone
    from teneig import homotopy

    scans = []
    real = homotopy.require_essentially_nonnegative

    def counted(T):
        scans.append(T)
        return real(T)

    def stalls(T, S, state):
        raise NewtonStalled(1)

    monkeypatch.setattr(homotopy, "require_essentially_nonnegative", counted)
    monkeypatch.setattr(homotopy, "endgame", stalls)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged" and rep.finish_sweeps > 0 and not rep.perturbed
    assert len(scans) == 1


@pytest.mark.parametrize("seed, m, n", [(None, 3, 3), (5, 3, 20), (6, 2, 6), (7, 4, 5)])
def test_zero_free_input_skips_the_pattern_scan(monkeypatch, seed, m, n):
    # every off-diagonal entry is positive: the input scan has already
    # found every edge, so the pattern scan would only confirm it
    from teneig import homotopy

    A = dense_demo() if seed is None else random_instance(m, n, seed=seed)
    assert require_essentially_nonnegative(A)[1]
    perturbed = not homotopy.weak_irreducibility_check(A)

    def pattern_scan(T):
        raise AssertionError("pattern scan on a zero-free input")

    monkeypatch.setattr(homotopy, "weak_irreducibility_check", pattern_scan)
    rep = solve_dominant(A)
    assert rep.status == "converged"
    assert perturbed is False and rep.perturbed is perturbed


@pytest.mark.parametrize(
    "m, n, index, reducible", [(3, 5, (1, 0, 4), False), (4, 3, (2, 2, 2, 0), False), (2, 2, (0, 1), True)]
)
def test_one_zero_off_diagonal_entry_runs_the_pattern_scan(monkeypatch, m, n, index, reducible):
    from teneig import homotopy

    data = np.array(random_instance(m, n, seed=8).data)
    data[index] = 0.0
    A = Tensor(data)
    assert not require_essentially_nonnegative(A)[1]
    scans = []
    real = homotopy.weak_irreducibility_check

    def counted(T):
        scans.append(T)
        return real(T)

    monkeypatch.setattr(homotopy, "weak_irreducibility_check", counted)
    rep = solve_dominant(A)
    assert scans == [A]
    assert reducible is not weak_irreducibility_naive(data)
    assert rep.perturbed is reducible


@given(
    st.integers(2, 4),
    st.integers(1, 5),
    st.sampled_from([0.0, 0.05, 0.3, 0.8]),
    st.integers(0, 2**32 - 1),
)
def test_scan_and_pattern_scan_settle_perturbation_as_the_oracle(m, n, zeros, seed):
    # zeros is the share of entries set to 0: 0.0 leaves every off-diagonal
    # entry positive, 0.8 mostly gives reducible patterns
    from types import SimpleNamespace

    from teneig import homotopy

    rng = np.random.default_rng(seed)
    data = np.where(rng.random((n,) * m) < zeros, 0.0, rng.uniform(0.1, 1.0, (n,) * m))
    data[(np.arange(n),) * m] = rng.uniform(-1.0, 1.0, n)
    A = Tensor(data)
    irreducible = weak_irreducibility_naive(data)
    alpha, complete = require_essentially_nonnegative(A)
    assert alpha == alpha_shift_dense(data)[0]
    assert irreducible or not complete
    decided = []

    def attempt(A, alpha, config, a, b, perturbed):
        decided.append(perturbed)
        return SimpleNamespace(status="converged")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "_solve_shifted", attempt)
        solve_dominant(A)
    assert decided == [not irreducible]


def _block_diagonal_3_60():
    data = np.zeros((60, 60, 60))
    data[:30, :30, :30] = random_instance(3, 30, seed=51).data
    data[30:, 30:, 30:] = 1.25 * random_instance(3, 30, seed=52).data
    return Tensor(data)


@pytest.mark.parametrize("reducible", [False, True])
def test_solve_keeps_no_copy_of_the_input(reducible):
    # T and S are evaluated in closed form on A: the peak of everything the
    # solve allocates stays far below one more n^m array
    import tracemalloc

    A = _block_diagonal_3_60() if reducible else random_instance(3, 60, seed=50)
    tracemalloc.start()
    try:
        rep = solve_dominant(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "converged" and rep.perturbed == reducible
    assert peak < 0.5 * A.data.nbytes


def test_solve_validates_input():
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 1] = -1.0
    with pytest.raises(EssentialNonnegativityError):
        solve_dominant(Tensor(bad))
    with pytest.raises(ValueError):
        solve_dominant(dense_demo(), a=np.ones(2))
    with pytest.raises(ValueError):
        solve_dominant(dense_demo(), a=np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, 1.0, 1.0], [np.nan, 1.0, 1.0]),
        ([np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]),
        ([1.0, 1.0, 1.0], [np.inf, 1.0, 1.0]),
        ([np.inf, 1.0, 1.0], [1.0, 1.0, 1.0]),
        ([1.0, 1.0, 1.0], [1e300, 1.0, 1.0]),  # (a.b)^{m-1} overflows
        ([1e200, 1.0, 1.0], [1.0, 1.0, 1.0]),  # a^{[m-1]} overflows
        ([1e-300, 1.0, 1.0], [1.0, 1.0, 1.0]),  # a^{[m-1]} underflows to a zero entry
        ([1e-160, 1.0, 1.0], [1.0, 1.0, 1.0]),  # a^{[m-1]} is subnormal
        ([1.0, 1.0, 1.0], [1e-200] * 3),  # (a.b)^{m-1}, the start lambda, underflows
        ([1e-200] * 3, [1e-200] * 3),  # a.a underflows too
    ],
)
def test_solve_rejects_start_vectors_that_are_not_finite(a, b):
    # a NaN or inf entry, or a start term that overflows or falls below the
    # smallest normal float, gives no usable start pair, so it is refused
    # before the path starts
    with pytest.raises(ValueError, match="a and b must be"):
        solve_dominant(dense_demo(), a=np.array(a), b=np.array(b))


def test_solve_checks_the_start_vectors_once(monkeypatch):
    # start_pair's check covers the start system built from the same pair
    from teneig import tensor

    checks = []
    real = tensor._positive_pair

    def counted(a, b, order):
        checks.append(order)
        return real(a, b, order)

    monkeypatch.setattr(tensor, "_positive_pair", counted)
    solve_dominant(dense_demo())
    solve_dominant(sparse_ring_demo(), a=[1.0, 2.0, 1.0], b=[2.0, 1.0, 1.0], assume="reducible")
    assert checks == [3, 3]


def test_solve_custom_start_vectors():
    A = dense_demo()
    rng = np.random.default_rng(35)
    rep = solve_dominant(A, a=rng.uniform(0.5, 2.0, size=3), b=rng.uniform(0.5, 2.0, size=3))
    assert rep.status == "converged"
    assert rep.eigen.lam == pytest.approx(36.2757, abs=5e-4)
