import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teneig.linalg import (
    PIVOT_RTOL,
    SingularMatrixError,
    lu_apply,
    lu_factor,
    solve,
)

from oracles import fd_jacobian


def well_conditioned(rng, k, cond=1e3):
    """Random k-by-k matrix with singular values spread over [1, cond]."""
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = np.geomspace(1.0, cond, k)
    return q1 @ np.diag(s) @ q2


def test_lu_solve_identity():
    rhs = np.array([3.0, -1.0, 7.0])
    assert np.array_equal(lu_apply(lu_factor(np.eye(3)), rhs), rhs)


def test_lu_solve_hand_checkable():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(lu_apply(lu_factor(M), np.array([3.0, 4.0])), [1.0, 1.0], atol=1e-14)


def test_lu_zero_row_is_singular():
    M = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        lu_apply(lu_factor(M), np.ones(2))
    fact = lu_factor(M)
    assert fact.singular and fact.pivot_index is not None


def test_lu_factor_flags_exactly_singular():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    fact = lu_factor(M)
    assert fact.singular
    with pytest.raises(SingularMatrixError) as err:
        lu_apply(lu_factor(M), np.ones(2))
    assert err.value.pivot_index == 1


def test_lu_rejects_bad_matrices():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_lu_reconstruction_and_solve_up_to_101():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5, 17, 64, 101):
        M = well_conditioned(rng, k)
        fact = lu_factor(M)
        assert not fact.singular
        L = np.tril(fact.lu, -1) + np.eye(k)
        U = np.triu(fact.lu)
        assert np.abs(L @ U - M[fact.perm]).max() <= 1e-10 * np.abs(M).max()
        rhs = rng.standard_normal(k)
        y = lu_apply(lu_factor(M), rhs)
        assert np.linalg.norm(M @ y - rhs) <= 1e-10 * np.abs(M).max() * max(
            1.0, np.linalg.norm(y)
        )


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=25)
def test_lu_solves_random_systems(seed, k):
    rng = np.random.default_rng(seed)
    M = well_conditioned(rng, k, cond=1e4)
    rhs = rng.standard_normal(k)
    y = lu_apply(lu_factor(M), rhs)
    assert np.linalg.norm(M @ y - rhs) <= 1e-9 * np.abs(M).max() * max(1.0, np.linalg.norm(y))


def test_fd_jacobian_linear_map_is_exact():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    J = fd_jacobian(lambda v: M @ v, rng.standard_normal(4))
    assert np.abs(J - M).max() <= 1e-9


def test_fd_jacobian_componentwise_square():
    J = fd_jacobian(lambda v: v**2, np.array([1.0, 2.0]))
    assert np.allclose(J, np.diag([2.0, 4.0]), atol=1e-8)


def test_fd_jacobian_quadratic_is_exact_to_roundoff():
    # central differences have no h^2 term on quadratics
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    f = lambda v: np.array([v @ A @ v, v[0] * v[1], v[2] ** 2])
    x = rng.standard_normal(3)
    grad = np.vstack([(A + A.T) @ x, [x[1], x[0], 0.0], [0.0, 0.0, 2 * x[2]]])
    assert np.abs(fd_jacobian(f, x) - grad).max() <= 1e-9


def test_fd_jacobian_second_order_by_h_halving():
    f = lambda v: np.array([np.exp(v[0]) + v[1] ** 3, np.sin(v[0] * v[1])])
    x = np.array([0.3, 0.7])
    exact = np.array(
        [
            [np.exp(0.3), 3 * 0.7**2],
            [0.7 * np.cos(0.21), 0.3 * np.cos(0.21)],
        ]
    )
    errs = []
    for h in (1e-3, 5e-4):
        errs.append(np.abs(fd_jacobian(f, x, h=h) - exact).max())
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 2.0) <= 0.2


# ------------------------------------------------------------- LAPACK solve


@pytest.mark.parametrize("seed, k", [(0, 1), (1, 4), (2, 11), (3, 40)])
def test_solve_agrees_with_lu(seed, k):
    rng = np.random.default_rng(seed)
    M = well_conditioned(rng, k)
    rhs = rng.standard_normal(k)
    y = solve(M, rhs)
    assert np.allclose(y, lu_apply(lu_factor(M), rhs), rtol=1e-10, atol=1e-12)
    assert np.abs(M @ y - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_solve_rejects_singular_systems():
    exact = np.array([[1.0, 2.0], [2.0, 4.0]])
    near = np.array([[1.0, 0.0], [0.0, 0.1 * PIVOT_RTOL]])  # relative pivot 1e-15
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for M in (exact, near, nan):
        with pytest.raises(SingularMatrixError) as err:
            solve(M, np.ones(2))
        assert err.value.pivot_index is None
        assert "numerically singular" in str(err.value)


def test_singular_error_names_a_pivot_only_when_given():
    assert SingularMatrixError().pivot_index is None
    assert "column" not in str(SingularMatrixError())
    assert "column 3" in str(SingularMatrixError(3))
