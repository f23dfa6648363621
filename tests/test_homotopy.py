import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teneig import (
    EssentialNonnegativityError,
    HomotopyConfig,
    NewtonStalled,
    ShiftedTensor,
    Tensor,
    eigen_residual,
    require_essentially_nonnegative,
    solve_dominant,
    start_pair,
    start_system,
)
from teneig.homotopy import (
    DTAU_MAX,
    DTAU_MIN,
    PathState,
    _system,
    _tangent,
    endgame,
    newton_correct,
    predict,
    update_step_size,
)
from teneig.instances import dense_demo, random_instance, sparse_ring_demo
from teneig.linalg import SingularMatrixError, lu_apply, lu_factor
from teneig.tensor import add_identity, rank_one_start

from oracles import (
    alpha_shift_dense,
    block2_dominant_bisect,
    fd_jacobian,
    relative_bracket,
    tvp_naive,
    weak_irreducibility_naive,
)


# The residual, Jacobian and tau-derivative of the homotopy are the three
# outputs of the solver's one evaluation, homotopy._system.
def homotopy_residual(T, S, tau, lam, x):
    return _system(T, S, tau, lam, x)[0]


def homotopy_jacobian(T, S, tau, lam, x):
    return _system(T, S, tau, lam, x)[1]


def tau_derivative(T, S, x):
    return _system(T, S, 0.0, 0.0, x)[2]


def positive_instance(m=3, n=3, seed=0):
    rng = np.random.default_rng(seed)
    T = Tensor(rng.uniform(0.1, 1.0, size=(n,) * m))
    S = rank_one_start(np.ones(n), np.ones(n), m)
    return T, S


def path_state(T, S, tau, u, dtau):
    """A PathState at u = (lam, x...) carrying its path tangent, as the solver's do."""
    u = np.asarray(u, dtype=float)
    return PathState(tau, u, _tangent(*_system(T, S, tau, u[0], u[1:])[1:]), dtau)


def polished_path_point(T, S, tau_target, tol=1e-13):
    """Walk plain Newton corrections along a tau grid from the exact start."""
    n = T.dim
    pair = start_pair(np.ones(n), np.ones(n), T.order)
    u = np.concatenate([[pair.lam], pair.x])
    for tau in np.linspace(0.0, tau_target, 11)[1:]:
        u, _, _ = newton_correct(T, S, float(tau), u, tol, 100)
    return u


# ---------------------------------------------------------------- config/type


def test_config_validation():
    with pytest.raises(ValueError):
        HomotopyConfig(dtau0=0.5)  # above DTAU_MAX
    with pytest.raises(ValueError):
        HomotopyConfig(eps1=1e-12, eps2=1e-5)
    with pytest.raises(ValueError):
        HomotopyConfig(beta=1.0)
    with pytest.raises(ValueError):
        HomotopyConfig(eps_perturb=0.0)
    with pytest.raises(ValueError):
        HomotopyConfig(max_steps=0)
    with pytest.raises(ValueError):
        HomotopyConfig(eps2=0.0)


# ---------------------------------------------------------- residual/jacobian


def test_residual_endpoints_match_component_systems():
    T, S = positive_instance(seed=1)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.1, 1.0, size=3)
    lam = 4.2
    q = eigen_residual(T, lam, x)
    p = eigen_residual(S, lam, x)
    assert np.array_equal(homotopy_residual(T, S, 1.0, lam, x), q)
    assert np.array_equal(homotopy_residual(T, S, 0.0, lam, x), p)


def test_residual_is_convex_combination():
    T, S = positive_instance(seed=3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(0.1, 1.0, size=3)
        lam = rng.uniform(0.5, 10.0)
        h = homotopy_residual(T, S, 0.5, lam, x)
        combo = 0.5 * eigen_residual(S, lam, x) + 0.5 * eigen_residual(T, lam, x)
        assert np.abs(h - combo).max() <= 1e-14 * max(1.0, np.abs(combo).max())


def test_residual_zero_at_start_system_solution():
    T, _ = positive_instance(seed=5)
    rng = np.random.default_rng(6)
    a = rng.uniform(0.5, 2.0, size=3)
    b = rng.uniform(0.5, 2.0, size=3)
    S = rank_one_start(a, b, 3)
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
    blend = tau * T.data + (1 - tau) * S.data - lam * np.eye(3)
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
    # the solver's T and S are operators over A; _system takes either
    rng = np.random.default_rng(40)
    A = random_instance(3, 4, seed=41)
    a = rng.uniform(0.5, 2.0, size=4)
    b = rng.uniform(0.5, 2.0, size=4)
    for eps in (0.0, 1e-3):
        dense = (Tensor(alpha_shift_dense(A.data, eps)[1]), rank_one_start(a, b, 3))
        ops = (ShiftedTensor(A, require_essentially_nonnegative(A)[0], eps), start_system(a, b, 3))
        x = rng.uniform(0.2, 1.0, size=4)
        for f, args in (
            (homotopy_residual, (0.4, 7.5, x)),
            (homotopy_jacobian, (0.4, 7.5, x)),
            (tau_derivative, (x,)),
        ):
            want = f(*dense, *args)
            assert np.allclose(f(*ops, *args), want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_system_assembly_holds_few_n_by_n_temporaries():
    # the blend is built in place in J: the kernel's own temporaries, JT, JS
    # and J are the n-by-n arrays alive at the peak, not the sums between
    import tracemalloc

    A = random_instance(3, 120, seed=42)
    n = A.dim
    alpha = require_essentially_nonnegative(A)[0]
    T, S = ShiftedTensor(A, alpha), start_system(np.ones(n), np.ones(n), 3)
    x = np.full(n, n**-0.5)
    _system(T, S, 0.4, 7.5, x)  # warm-up: the kernel's thread pool and caches
    tracemalloc.start()
    try:
        _system(T, S, 0.4, 7.5, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n * n


# -------------------------------------------------------------- tau derivative


def test_tau_derivative_zero_when_systems_coincide():
    _, S = positive_instance(seed=12)
    assert np.array_equal(tau_derivative(S, S, np.ones(3)), np.zeros(4))


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
    S = rank_one_start(np.ones(3), np.ones(3), 3)
    x0 = np.ones(3) / np.sqrt(3.0)
    d = tau_derivative(T, S, x0)
    expected = tvp_naive(T.data, x0) - tvp_naive(S.data, x0)
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
    _, S = positive_instance(seed=15)
    pair = start_pair(np.ones(3), np.ones(3), 3)
    state = path_state(S, S, 0.2, np.concatenate([[pair.lam], pair.x]), 0.3)
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


def test_corrector_hands_on_the_predictors_tangent():
    # the tangent newton_correct returns is the one solved for afresh at the
    # converged point, bit for bit, and predict steps along it; a state
    # without a tangent predicts nothing
    T, S = positive_instance(seed=16)
    u = polished_path_point(T, S, 0.3)
    v, _, g = newton_correct(T, S, 0.3, u, 1e-5, 10)
    assert np.array_equal(g, _tangent(*_system(T, S, 0.3, v[0], v[1:])[1:]))
    assert np.array_equal(predict(PathState(0.3, v, g, 0.1), dtau=1.0), v + g)
    with pytest.raises(SingularMatrixError):
        predict(PathState(0.3, v, None, 0.1), dtau=1.0)
    # at tau = 1 the path ends, so no tangent is solved for
    pair = start_pair(np.ones(3), np.ones(3), 3)
    u0 = np.concatenate([[pair.lam], pair.x])
    assert newton_correct(S, S, 0.5, u0, 1e-5, 10)[2] is not None
    assert newton_correct(S, S, 1.0, u0, 1e-5, 10)[2] is None


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
    _, S = positive_instance(seed=25)
    pair = start_pair(np.ones(3), np.ones(3), 3)
    cfg = HomotopyConfig()
    state = path_state(S, S, cfg.beta, np.concatenate([[pair.lam], pair.x]), 1.0 - cfg.beta)
    got, iters = endgame(S, S, state, cfg)
    assert iters == 0
    assert got.lam == pytest.approx(pair.lam, abs=1e-12)
    assert np.allclose(got.x, pair.x, atol=1e-12)


def test_failed_jump_retries_once_closer_to_one(monkeypatch):
    from teneig import homotopy

    real = homotopy.endgame
    betas = []

    def stalls_once(T, S, state, config):
        betas.append(state.tau)
        if len(betas) == 1:
            raise NewtonStalled(3)
        return real(T, S, state, config)

    monkeypatch.setattr(homotopy, "endgame", stalls_once)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged" and not rep.perturbed
    assert betas == [0.9999, 0.99995]
    # 5 path steps, 1 more to the second beta and 2 jumps; the failed jump's
    # 3 Newton iterations are counted
    assert (rep.iter, rep.nwtiter) == (8, 14)


# --------------------------------------------------------------------- driver


def test_step_size_floor_ends_in_step_limit(monkeypatch):
    # every correction stalls after one Newton iteration, so the first step
    # halves from 0.1 down to DTAU_MIN = 1e-6 (17 tries) and fails there once more
    from teneig import homotopy

    def stalls(T, S, tau, u0, tol, cap):
        raise NewtonStalled(1)

    monkeypatch.setattr(homotopy, "newton_correct", stalls)
    cfg = HomotopyConfig(eps1=1e-300, eps2=1e-300)
    rep = solve_dominant(dense_demo(), config=cfg)
    assert rep.status == "step_limit"
    assert rep.iter == rep.nwtiter == 18


def _count_kernel_calls(monkeypatch, name="tvp_and_jacobian"):
    calls = []
    real = getattr(ShiftedTensor, name)

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(ShiftedTensor, name, counted)
    return calls


def test_a_point_with_a_singular_jacobian_carries_no_tangent(monkeypatch):
    # the start point's Jacobian is zeroed, so it carries no tangent and every
    # try of the first step is rejected at once, down to the DTAU_MIN floor
    # (17 halvings and one more try there): the start is the only evaluation
    from teneig import homotopy

    real = homotopy._system

    def singular_at_start(T, S, tau, lam, x):
        r, J, dH = real(T, S, tau, lam, x)
        if tau == 0.0:
            J[:] = 0.0
        return r, J, dH

    monkeypatch.setattr(homotopy, "_system", singular_at_start)
    calls = _count_kernel_calls(monkeypatch)
    rep = solve_dominant(dense_demo())
    assert rep.status == "step_limit"
    assert (rep.iter, rep.nwtiter) == (18, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("A", [dense_demo(), random_instance(3, 20, seed=40)])
def test_each_accepted_point_is_evaluated_once(monkeypatch, A):
    # with no rejection: the start tangent and one evaluation per Newton
    # iterate (each of the iter steps and jumps ends in one more than its
    # updates); the predictor reuses the corrector's tangent, and the final
    # residual is one y-only pass
    calls = _count_kernel_calls(monkeypatch)
    residuals = _count_kernel_calls(monkeypatch, "tvp")
    rep = solve_dominant(A)
    assert rep.status == "converged"
    assert len(calls) == 1 + rep.iter + rep.nwtiter
    assert len(residuals) == 1


def test_rejected_first_step_reuses_the_start_tangent(monkeypatch):
    # the first step stalls once; the start tangent is its only evaluation
    # before either correction, the retry's included
    from teneig import homotopy

    calls = _count_kernel_calls(monkeypatch)
    real = homotopy.newton_correct
    at_entry = []

    def stalls_once(T, S, tau, u0, tol, cap):
        at_entry.append(len(calls))
        if len(at_entry) == 1:
            raise NewtonStalled(0)
        return real(T, S, tau, u0, tol, cap)

    monkeypatch.setattr(homotopy, "newton_correct", stalls_once)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged"
    assert at_entry[:2] == [1, 1]


def test_rejected_step_reuses_the_tangent(monkeypatch):
    # the second step stalls once before any evaluation; its retry predicts
    # from the same accepted point without evaluating the tangent again
    from teneig import homotopy

    calls = _count_kernel_calls(monkeypatch)
    real = homotopy.newton_correct
    at_entry = []

    def stalls_once(T, S, tau, u0, tol, cap):
        at_entry.append(len(calls))
        if len(at_entry) == 2:
            raise NewtonStalled(0)
        return real(T, S, tau, u0, tol, cap)

    monkeypatch.setattr(homotopy, "newton_correct", stalls_once)
    rep = solve_dominant(dense_demo())
    assert rep.status == "converged"
    assert at_entry[2] == at_entry[1]
    assert len(calls) == 1 + (rep.iter - 1) + rep.nwtiter


def test_rejected_clipped_step_retries_half_its_length(monkeypatch):
    # dense_demo's path reaches tau = 0.8 with step length 0.4, so its step to
    # beta is clipped to 0.1999; half of 0.4 would still clip to beta, so a
    # rejection there must halve the clipped length instead
    from teneig import homotopy

    real = homotopy.newton_correct
    targets = []

    def stalls_at_beta_once(T, S, tau, u0, tol, cap):
        targets.append(tau)
        if tau == cfg.beta and targets.count(tau) == 1:
            raise NewtonStalled(0)
        return real(T, S, tau, u0, tol, cap)

    cfg = HomotopyConfig()
    monkeypatch.setattr(homotopy, "newton_correct", stalls_at_beta_once)
    rep = solve_dominant(dense_demo(), config=cfg)
    assert rep.status == "converged"
    failed = targets.index(cfg.beta)
    assert targets[failed - 1] == pytest.approx(0.8, abs=1e-12)
    assert targets[failed + 1] == pytest.approx(0.8 + 0.5 * (cfg.beta - 0.8), abs=1e-12)


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
    cfg = HomotopyConfig()
    for A in (dense_demo(), random_instance(3, 5, seed=34)):
        accepted_points.clear()
        rep = solve_dominant(A)
        assert rep.status == "converged"
        assert len(accepted_points) >= 2
        assert rep.path_min_x > 0.0
        for _, u in accepted_points:
            assert u[1:].min() > 0.0
            assert abs(u[1:] @ u[1:] - 1.0) <= cfg.eps1
        # the path reaches beta, then the endgame jumps to 1
        assert accepted_points[-2][0] >= cfg.beta
        assert accepted_points[-1][0] == 1.0
        assert abs(rep.eigen.x @ rep.eigen.x - 1.0) <= cfg.eps2


def test_solve_step_limit_status():
    rep = solve_dominant(dense_demo(), config=HomotopyConfig(max_steps=1))
    assert rep.status == "step_limit"
    assert rep.iter == 1


def test_solve_endgame_failure_after_escalation(monkeypatch):
    # every jump stalls: both betas fail, then the perturbed retry fails too
    from teneig import homotopy

    def stalls(T, S, u, config, beta=None, tangent=None):
        raise NewtonStalled(1)

    monkeypatch.setattr(homotopy, "endgame", stalls)
    cfg = HomotopyConfig(eps2=1e-16)
    rep = solve_dominant(dense_demo(), config=cfg)
    assert rep.status == "endgame_failure"
    assert rep.perturbed  # the final retry switched the perturbation on
    assert rep.residual_norm > 1e-16


@pytest.mark.parametrize(
    "seed, betas, status, perturbed",
    [
        (15, [0.9999, 0.99995], "converged", False),  # the beta retry
        (5, [0.9999, 0.99995, 0.9999], "converged", True),  # the perturbed re-solve
        (13, [0.9999, 0.99995] * 2, "converged", True),  # the re-solve's own beta retry
        (2, [0.9999, 0.99995] * 2, "endgame_failure", True),  # every jump fails
    ],
    ids=["beta-retry", "perturbed", "perturbed-beta-retry", "every-jump-fails"],
)
def test_log_uniform_inputs_reach_every_rescue(monkeypatch, seed, betas, status, perturbed):
    # entries over twelve decades; no fault is injected, the wrapper only
    # records the beta each jump starts from
    from teneig import homotopy

    A = Tensor(10.0 ** np.random.default_rng(seed).uniform(-6, 6, (8, 8, 8)))
    real = homotopy.endgame
    jumps = []

    def recorded(T, S, state, config):
        jumps.append(state.tau)
        return real(T, S, state, config)

    monkeypatch.setattr(homotopy, "endgame", recorded)
    rep = solve_dominant(A)
    assert (jumps, rep.status, rep.perturbed) == (betas, status, perturbed)
    if status == "converged":
        assert rep.eigen.x.min() > 0
        assert relative_bracket(A.data, rep.eigen.lam, rep.eigen.x) <= 1e-6


# The dominant eigenvalue of random_instance(3, 10, seed=1).
SCALED_LAMBDA = 49.30685148335562
SCALE_DEFECT = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")


@pytest.mark.parametrize(
    "k",
    [pytest.param(-16, marks=SCALE_DEFECT), pytest.param(-12, marks=SCALE_DEFECT), 0, 4,
     pytest.param(6, marks=SCALE_DEFECT), pytest.param(8, marks=SCALE_DEFECT)],
)
def test_solve_is_right_at_every_scale(k):
    lam = SCALED_LAMBDA * 10.0**k
    rep = solve_dominant(Tensor(random_instance(3, 10, seed=1).data * 10.0**k))
    assert rep.status == "converged"
    assert abs(rep.eigen.lam - lam) <= 1e-6 * lam


def test_perturbed_retry_scans_the_input_once(monkeypatch):
    # alpha comes from one scan that serves both attempts
    from teneig import homotopy

    scans = []
    real = homotopy.require_essentially_nonnegative

    def counted(T):
        scans.append(T)
        return real(T)

    def stalls(T, S, u, config, beta=None, tangent=None):
        raise NewtonStalled(1)

    monkeypatch.setattr(homotopy, "require_essentially_nonnegative", counted)
    monkeypatch.setattr(homotopy, "endgame", stalls)
    rep = solve_dominant(dense_demo())
    assert rep.status == "endgame_failure" and rep.perturbed
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


def test_solve_custom_start_vectors():
    A = dense_demo()
    rng = np.random.default_rng(35)
    rep = solve_dominant(A, a=rng.uniform(0.5, 2.0, size=3), b=rng.uniform(0.5, 2.0, size=3))
    assert rep.status == "converged"
    assert rep.eigen.lam == pytest.approx(36.2757, abs=5e-4)
