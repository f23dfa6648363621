import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teneig.linalg import (
    PIVOT_RTOL,
    SingularMatrixError,
    lu_apply,
    lu_factor,
    solve,
)

from oracles import fd_jacobian, solve_conditioned_reference


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
    (y,) = solve(M, rhs[:, None])
    assert np.allclose(y, lu_apply(lu_factor(M), rhs), rtol=1e-10, atol=1e-12)
    assert np.abs(M @ y - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_solve_rejects_singular_systems():
    exact = np.array([[1.0, 2.0], [2.0, 4.0]])
    near = np.array([[1.0, 0.0], [0.0, 0.1 * PIVOT_RTOL]])  # relative pivot 1e-15
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for M in (exact, near, nan):
        assert solve(M, np.ones((2, 1))) == [None]


def test_solve_rejects_a_non_finite_solution():
    # 1-by-1 systems whose y is inf: the first through rhs, the second by
    # overflow.  Only the isfinite(y) check catches them, since the
    # conditioning test compares inf <= inf.  (A 2-by-2 system with an inf
    # in rhs does not pin this: LAPACK's 0 * inf makes a NaN.)
    for M, rhs in ((np.eye(1), [[np.inf]]), ([[1e-300]], [[1e300]])):
        assert solve(np.array(M), np.array(rhs)) == [None]


def test_solve_checks_conditioning_without_overflow_warnings():
    # ||M|| ||y|| overflows to inf in the first system and ||rhs|| / PIVOT_RTOL
    # in the second, which is well conditioned; the suite turns warnings into
    # errors, so neither may warn
    assert solve(np.diag([1e-160, 1e160]), np.ones((2, 1))) == [None]
    rhs = np.array([[1e300], [1.0]])
    (y,) = solve(np.eye(2), rhs)
    assert np.array_equal(y, rhs[:, 0])


@st.composite
def linear_systems(draw):
    """(M, rhs): a random system, its rows scaled by up to 1e+-150, or a
    rank-deficient matrix plus a perturbation of size delta."""
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "row_scaled", "near_singular"]))
    M = rng.standard_normal((k, k))
    if kind == "row_scaled":
        M *= 10.0 ** rng.uniform(-150.0, 150.0, (k, 1))
    elif kind == "near_singular":
        rank = draw(st.integers(0, k - 1))
        M = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, k))
        M += draw(st.sampled_from([0.0, 1e-17, 1e-15, 1e-13, 1e-10])) * rng.standard_normal((k, k))
    return M, rng.standard_normal(k)


@given(linear_systems())
@example((np.eye(2), np.array([np.nan, 1.0])))
@example((np.array([[1e-300]]), np.array([1e300])))
@example((np.diag([1e-160, 1e160]), np.ones(2)))
@settings(max_examples=200)
def test_solve_rejects_exactly_what_the_reference_check_rejects(system):
    # Each decision, and each returned y, must be the reference's bit for
    # bit.  A row-scaled system can overflow ||M|| ||y|| to inf (the diag
    # example: 1e160 * 1e160), which both checks then compare as inf.
    M, rhs = system
    with np.errstate(over="ignore"):
        expected = solve_conditioned_reference(M, rhs, PIVOT_RTOL)
        (y,) = solve(M, rhs[:, None])
        if expected is None:
            assert y is None
        else:
            assert y.tobytes() == expected.tobytes()


def _two_column_systems():
    """(M, rhs) with a k-by-2 rhs: seeded systems of the three kinds
    linear_systems draws, and systems where one column or both fail."""
    for seed in range(600):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        M = rng.standard_normal((k, k))
        if seed % 3 == 1:
            M *= 10.0 ** rng.uniform(-150.0, 150.0, (k, 1))
        elif seed % 3 == 2:
            rank = int(rng.integers(0, k))
            M = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, k))
            M += [0.0, 1e-17, 1e-15, 1e-13, 1e-10][seed % 5] * rng.standard_normal((k, k))
        yield M, rng.standard_normal((k, 2))
    near = np.diag([1.0, 1.0, 0.1 * PIVOT_RTOL])
    yield near, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # the second fails
    yield np.eye(2), np.array([[np.nan, 1.0], [1.0, 2.0]])  # the first is NaN
    yield np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 2))  # LAPACK's zero pivot


def test_two_columns_are_checked_as_two_one_column_solves():
    # one LAPACK call on both columns accepts or rejects each exactly as a
    # call on that column alone does, and agrees with it to rounding
    decided = set()
    for M, rhs in _two_column_systems():
        with np.errstate(over="ignore"):
            both = solve(M, rhs)
            alone = [solve(M, rhs[:, j : j + 1])[0] for j in range(2)]
        assert len(both) == 2
        for y2, y1 in zip(both, alone):
            assert (y2 is None) == (y1 is None)
            decided.add(y1 is None)
            if y1 is not None:
                assert np.abs(y2 - y1).max() <= 1e-13 * np.abs(y1).max()
    assert decided == {True, False}


def test_singular_error_names_a_pivot_only_when_given():
    assert SingularMatrixError().pivot_index is None
    assert "column" not in str(SingularMatrixError())
    assert "column 3" in str(SingularMatrixError(3))
