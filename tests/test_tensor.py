import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from teneig import (
    EigenPair,
    EssentialNonnegativityError,
    Tensor,
    add_identity,
    alpha_shift,
    diagonal,
    eigen_residual,
    is_essentially_nonnegative,
    perturb,
    power_vector,
    rank_one_start,
    semi_symmetrize,
    start_pair,
    tvp,
    tvp_jacobian,
    unit_tensor,
    weak_irreducibility_check,
)
from teneig.instances import dense_demo, sparse_ring_demo

from oracles import fd_jacobian, matrix_contraction_naive, semi_symmetrize_naive, tvp_naive


def small_tensors(max_order=4, max_dim=3, lo=-10.0, hi=10.0):
    def build(md):
        m, n = md
        return hnp.arrays(
            np.float64,
            (n,) * m,
            elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        ).map(Tensor)

    return st.tuples(
        st.integers(2, max_order), st.integers(1, max_dim)
    ).flatmap(build)


def vectors_for(T, lo=-3.0, hi=3.0):
    return hnp.arrays(
        np.float64,
        (T.dim,),
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


# ---------------------------------------------------------------- Tensor type


def test_tensor_shape_and_entries_layout():
    T = Tensor.from_entries(np.arange(8.0), 3, 2)
    assert T.order == 3 and T.dim == 2
    # lexicographic, first index slowest
    assert T.data[0, 0, 0] == 0.0
    assert T.data[0, 0, 1] == 1.0
    assert T.data[0, 1, 0] == 2.0
    assert T.data[1, 0, 0] == 4.0
    assert np.array_equal(T.entries, np.arange(8.0))


def test_tensor_rejects_bad_input():
    with pytest.raises(ValueError):
        Tensor.from_entries(np.arange(7.0), 3, 2)
    with pytest.raises(ValueError):
        Tensor(np.ones(3))
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Tensor(np.array([[1.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Tensor(np.array([[1.0, np.inf], [0.0, 0.0]]))


def test_tensor_is_frozen():
    T = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        T.data[0, 0] = 1.0


def test_essential_nonnegativity_predicate():
    assert is_essentially_nonnegative(dense_demo())
    assert is_essentially_nonnegative(sparse_ring_demo())
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 0] = -0.5
    assert not is_essentially_nonnegative(Tensor(bad))


# ------------------------------------------------------------------------ tvp


def test_tvp_matrix_case():
    T = Tensor(np.array([[-1.0, 2.0], [3.0, -2.0]]))
    assert np.allclose(tvp(T, np.array([1.0, 1.0])), [1.0, 1.0])


def test_tvp_rank_one_case():
    S = rank_one_start(np.ones(2), np.ones(2), 3)
    # each component is (x1 + x2)^2
    assert np.allclose(tvp(S, np.array([1.0, 2.0])), [9.0, 9.0])


def test_tvp_sparse_demo_frozen():
    T = sparse_ring_demo()
    x = np.ones(3)
    expected = tvp_naive(T.data, x)
    assert np.array_equal(expected, [0.0, 0.0, 2.0])
    assert np.allclose(tvp(T, x), expected, atol=1e-14)


def test_tvp_dimension_mismatch():
    with pytest.raises(ValueError):
        tvp(sparse_ring_demo(), np.ones(4))


@given(small_tensors().flatmap(lambda T: st.tuples(st.just(T), vectors_for(T))))
def test_tvp_matches_naive_oracle(tx):
    T, x = tx
    scale = 1.0 + np.abs(T.data).max() * (1.0 + np.abs(x).max()) ** (T.order - 1)
    assert np.allclose(tvp(T, x), tvp_naive(T.data, x), atol=1e-10 * scale, rtol=0)


def test_tvp_homogeneity_relative():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        T = Tensor(rng.uniform(0.1, 1.0, size=(3,) * m))
        x = rng.uniform(0.1, 2.0, size=3)
        for c in (0.5, 2.0, 7.3):
            lhs = tvp(T, c * x)
            rhs = c ** (m - 1) * tvp(T, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# --------------------------------------------------------------- power_vector


def test_power_vector_examples():
    assert np.array_equal(power_vector(np.array([1.0, 2.0]), 2), [1.0, 4.0])
    assert np.allclose(power_vector(np.array([4.0, 9.0]), 0.5), [2.0, 3.0])
    assert np.array_equal(power_vector(np.ones(3), 2), np.ones(3))


def test_power_vector_domain_error():
    with pytest.raises(ValueError):
        power_vector(np.array([-1.0, 2.0]), 0.5)
    # integer exponents are fine on negative bases
    assert np.array_equal(power_vector(np.array([-2.0]), 2), [4.0])


# --------------------------------------------------------------- tvp_jacobian


def test_jacobian_matrix_case_is_the_matrix():
    T = Tensor(np.array([[-1.0, 2.0], [3.0, -2.0]]))
    for x in (np.array([1.0, 1.0]), np.array([0.3, -2.0])):
        assert np.array_equal(tvp_jacobian(T, x), T.data)


def test_jacobian_rank_one_by_hand():
    S = rank_one_start(np.ones(2), np.ones(2), 3)
    # tvp component is (x1+x2)^2, so every Jacobian entry is 2(x1+x2)
    J = tvp_jacobian(S, np.array([1.0, 1.0]))
    assert np.allclose(J, 4.0 * np.ones((2, 2)), atol=1e-14)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for m, n in ((2, 4), (3, 3), (4, 3)):
        T = Tensor(rng.standard_normal((n,) * m))
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=n)
            J = tvp_jacobian(T, x)
            Jfd = fd_jacobian(lambda v: tvp(T, v), x)
            assert np.abs(J - Jfd).max() <= 1e-6 * max(1.0, np.abs(J).max())


def test_jacobian_equals_semisymmetric_contraction():
    rng = np.random.default_rng(12)
    for m, n in ((3, 3), (4, 2)):
        data = rng.uniform(0.0, 1.0, size=(n,) * m)
        x = rng.uniform(0.1, 1.0, size=n)
        J = tvp_jacobian(Tensor(data), x)
        ref = (m - 1) * matrix_contraction_naive(semi_symmetrize_naive(data), x)
        assert np.abs(J - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_jacobian_dimension_mismatch():
    with pytest.raises(ValueError):
        tvp_jacobian(sparse_ring_demo(), np.ones(2))


# ------------------------------------------------------------ semi_symmetrize


def test_semi_symmetrize_two_permutation_average():
    data = np.zeros((2, 2, 2))
    data[0, 0, 1] = 2.0
    out = semi_symmetrize(Tensor(data))
    assert out.data[0, 0, 1] == 1.0
    assert out.data[0, 1, 0] == 1.0
    assert np.count_nonzero(out.data) == 2


def test_semi_symmetrize_fixed_point():
    rng = np.random.default_rng(1)
    sym = semi_symmetrize(Tensor(rng.standard_normal((3, 3, 3))))
    again = semi_symmetrize(sym)
    assert np.allclose(sym.data, again.data, atol=1e-15)


def test_semi_symmetrize_preserves_tvp_relative():
    rng = np.random.default_rng(2)
    T = Tensor(rng.uniform(0.0, 1.0, size=(4, 4, 4)))
    Ts = semi_symmetrize(T)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=4)
        y = tvp(T, x)
        assert np.linalg.norm(tvp(Ts, x) - y) <= 1e-12 * np.linalg.norm(y)


@given(small_tensors().flatmap(lambda T: st.tuples(st.just(T), vectors_for(T))))
def test_semi_symmetrize_preserves_tvp_any(tx):
    T, x = tx
    scale = 1.0 + np.abs(T.data).max() * (1.0 + np.abs(x).max()) ** (T.order - 1)
    diff = tvp(semi_symmetrize(T), x) - tvp(T, x)
    assert np.linalg.norm(diff) <= 1e-10 * scale


def test_semi_symmetrize_naive_agreement():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((3, 3, 3))
    assert np.allclose(semi_symmetrize(Tensor(data)).data, semi_symmetrize_naive(data), atol=1e-14)


# ------------------------------------------------------ shifts, perturbations


def test_alpha_shift_demo_values():
    alpha, T = alpha_shift(dense_demo())
    assert alpha == pytest.approx(6.32, abs=1e-12)
    assert (T.data >= 0).all()
    alpha2, _ = alpha_shift(sparse_ring_demo())
    assert alpha2 == 2.0
    # with eps > 0: the solvers' T, equal to the two-copy build bit for bit
    alpha3, T3 = alpha_shift(dense_demo(), 1e-9)
    assert alpha3 == alpha
    assert np.array_equal(T3.data, add_identity(perturb(dense_demo(), 1e-9), alpha).data)
    with pytest.raises(ValueError):
        alpha_shift(dense_demo(), -1e-9)


def test_alpha_shift_zero_tensor():
    alpha, T = alpha_shift(Tensor.zeros(3, 2))
    assert alpha == 1.0
    assert np.array_equal(T.data, unit_tensor(3, 2).data)


def test_alpha_shift_rejects_negative_off_diagonal():
    bad = np.zeros((2, 2, 2))
    bad[1, 0, 0] = -1.0
    with pytest.raises(EssentialNonnegativityError) as err:
        alpha_shift(Tensor(bad))
    assert err.value.index == (2, 1, 1)  # 1-based


@given(small_tensors(lo=0.0, hi=5.0))
def test_alpha_shift_nonnegative_output(T):
    # make the diagonal negative; the result must still be nonnegative
    data = np.array(T.data)
    n = T.dim
    data[(np.arange(n),) * T.order] = -np.abs(data[(np.arange(n),) * T.order])
    _, shifted = alpha_shift(Tensor(data))
    assert (shifted.data >= 0).all()


def test_perturb():
    E = perturb(Tensor.zeros(3, 2), 1e-9)
    assert np.array_equal(E.data, np.full((2, 2, 2), 1e-9))
    with pytest.raises(ValueError):
        perturb(E, 0.0)
    with pytest.raises(ValueError):
        perturb(E, -1e-3)


def test_add_identity_and_diagonal():
    T = add_identity(Tensor.zeros(3, 3), 2.5)
    assert np.array_equal(diagonal(T), [2.5, 2.5, 2.5])
    assert T.data[0, 1, 2] == 0.0


# ------------------------------------------------------- rank-one start system


def test_rank_one_start_entries():
    S = rank_one_start(np.array([1.0, 2.0]), np.ones(2), 3)
    assert np.array_equal(S.data[0], np.ones((2, 2)))
    assert np.array_equal(S.data[1], 4.0 * np.ones((2, 2)))

    S2 = rank_one_start(np.ones(3), np.ones(3), 4)
    assert np.array_equal(S2.data, np.ones((3, 3, 3, 3)))

    S3 = rank_one_start(np.ones(2), np.array([1.0, 2.0]), 3)
    expected = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert np.array_equal(S3.data[0], expected)
    assert np.array_equal(S3.data[1], expected)


def test_rank_one_start_rejects_nonpositive():
    with pytest.raises(ValueError):
        rank_one_start(np.array([1.0, 0.0]), np.ones(2), 3)
    with pytest.raises(ValueError):
        rank_one_start(np.ones(2), np.array([1.0, -1.0]), 3)


def test_start_pair_closed_forms():
    pair = start_pair(np.ones(3), np.ones(3), 3)
    assert pair.lam == 9.0
    assert np.allclose(pair.x, np.ones(3) / np.sqrt(3))

    for n, m in ((2, 3), (4, 2), (3, 5)):
        assert start_pair(np.ones(n), np.ones(n), m).lam == pytest.approx(n ** (m - 1))


def test_start_pair_is_exact_eigenpair_of_rank_one_tensor():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 1.0])
    pair = start_pair(a, b, 3)
    assert pair.lam == 25.0
    assert np.allclose(pair.x, a / np.sqrt(5.0))
    S = rank_one_start(a, b, 3)
    res = np.linalg.norm(tvp(S, pair.x) - pair.lam * pair.x**2)
    assert res <= 1e-10 * pair.lam


# -------------------------------------------------------------- residual


def test_residual_zero_at_start_pair():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 2.0, size=4)
    b = rng.uniform(0.5, 2.0, size=4)
    S = rank_one_start(a, b, 3)
    pair = start_pair(a, b, 3)
    assert np.linalg.norm(eigen_residual(S, pair.lam, pair.x)) <= 1e-12 * max(1.0, pair.lam)


def test_residual_on_unit_tensor():
    I = unit_tensor(3, 4)
    x = np.array([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(eigen_residual(I, 1.0, x), np.zeros(5), atol=1e-15)


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        eigen_residual(sparse_ring_demo(), 1.0, np.ones(2))


@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.floats(0.1, 3.0),
)
def test_unit_tensor_acts_as_componentwise_power(m, n, scale):
    x = scale * (1.0 + np.arange(n, dtype=float))
    assert np.allclose(tvp(unit_tensor(m, n), x), x ** (m - 1), rtol=1e-13)


# --------------------------------------------------- irreducibility surrogate


def test_irreducibility_sparse_demo():
    assert weak_irreducibility_check(sparse_ring_demo())


def test_irreducibility_diagonal_false():
    assert not weak_irreducibility_check(unit_tensor(3, 3))
    assert not weak_irreducibility_check(unit_tensor(2, 2))


def test_irreducibility_positive_true():
    rng = np.random.default_rng(6)
    for m, n in ((2, 3), (3, 4), (4, 2)):
        T = Tensor(rng.uniform(0.1, 1.0, size=(n,) * m))
        assert weak_irreducibility_check(T)


def test_irreducibility_block_diagonal_false():
    data = np.zeros((4, 4, 4))
    data[np.ix_([0, 1], [0, 1], [0, 1])] = 1.0
    data[np.ix_([2, 3], [2, 3], [2, 3])] = 1.0
    assert not weak_irreducibility_check(Tensor(data))


def test_irreducibility_one_way_chain_false():
    # 1 feeds off 2 but nothing feeds off 1
    data = np.zeros((2, 2, 2))
    data[0, 1, 1] = 1.0
    assert not weak_irreducibility_check(Tensor(data))


# ------------------------------------------------------------------ EigenPair


def test_eigenpair_normalizes():
    p = EigenPair(2.0, np.array([3.0, 4.0]))
    assert abs(p.x @ p.x - 1.0) <= 1e-12
    assert p.lam == 2.0


def test_eigenpair_rejects_zero_vector():
    with pytest.raises(ValueError):
        EigenPair(1.0, np.zeros(3))
