import multiprocessing
import os
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from teneig import (
    EigenPair,
    EssentialNonnegativityError,
    ShiftedTensor,
    Tensor,
    eigen_residual,
    require_essentially_nonnegative,
    start_pair,
    start_system,
    tvp,
    weak_irreducibility_check,
)
from teneig import tensor
from teneig.homotopy import _j_pass, _y_pass
from teneig.instances import dense_demo, random_instance, sparse_ring_demo
from teneig.tensor import (
    add_identity,
    perturb,
    rank_one_start,
    tvp_jacobian,
)

from oracles import (
    alpha_shift_dense,
    essential_nonnegativity_violation_naive,
    fd_jacobian,
    fused_kernel,
    matrix_contraction_naive,
    off_diagonal_positive_naive,
    semi_symmetrize_naive,
    tvp_naive,
    unit_tensor_naive,
    weak_irreducibility_naive,
)


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
    T = Tensor(np.arange(8.0).reshape(2, 2, 2))
    assert T.order == 3 and T.dim == 2
    # lexicographic, first index slowest
    assert T.data[0, 0, 0] == 0.0
    assert T.data[0, 0, 1] == 1.0
    assert T.data[0, 1, 0] == 2.0
    assert T.data[1, 0, 0] == 4.0
    assert np.array_equal(T.entries, np.arange(8.0))


def test_tensor_rejects_bad_input():
    with pytest.raises(ValueError):
        Tensor(np.ones(3))
    for shape in ((0, 0), (0, 0, 0)):
        with pytest.raises(ValueError):
            Tensor(np.zeros(shape))
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


def test_tensor_copies_the_callers_array():
    # the public constructor never freezes or shares its argument
    arr = np.ones((3, 3, 3))
    T = Tensor(arr)
    assert arr.flags.writeable and not np.shares_memory(arr, T.data)
    arr[0, 0, 0] = 5.0
    assert T.data[0, 0, 0] == 1.0


def test_adopt_takes_the_array_and_checks_it_as_the_constructor_does():
    arr = np.ones((3, 3, 3))
    T = Tensor._adopt(arr)
    assert T.data is arr and not arr.flags.writeable
    for bad in (np.ones(3), np.zeros((0, 0)), np.ones((2, 3)), np.array([[1.0, np.nan], [0.0, 0.0]])):
        with pytest.raises(ValueError):
            Tensor._adopt(bad)


@pytest.mark.parametrize("build", [Tensor, Tensor._adopt], ids=["Tensor", "_adopt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nonfinite_entry_in_the_last_block_is_rejected(build, bad):
    # 100^3 entries are 16 blocks of the finiteness check; the bad entry
    # opens the last block, then ends it
    size, block = 100**3, tensor.SCAN_BLOCK_ENTRIES
    for pos in ((size - 1) // block * block, size - 1):
        arr = np.zeros((100,) * 3)
        arr.reshape(-1)[pos] = bad
        with pytest.raises(ValueError, match="finite"):
            build(arr)


def test_tensor_checks_finiteness_without_a_full_mask():
    # one block's mask, 2^16 bools, is ~0.008x a (3,100) input; an n^m
    # mask would be 0.125x
    import tracemalloc

    arr = np.array(random_instance(3, 100, seed=60).data)
    mine = np.array(arr)
    Tensor(arr)  # warm-up
    peaks = []
    for build, data in ((Tensor, arr), (Tensor._adopt, mine)):
        tracemalloc.start()
        try:
            build(data)
            peaks.append(tracemalloc.get_traced_memory()[1] / arr.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.02  # the copy and the check
    assert peaks[1] < 0.02  # the check alone


def test_essential_nonnegativity_predicate():
    require_essentially_nonnegative(dense_demo())
    require_essentially_nonnegative(sparse_ring_demo())
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 0] = -0.5
    with pytest.raises(EssentialNonnegativityError):
        require_essentially_nonnegative(Tensor(bad))


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


# ------------------------------------------------------- fused (y, J) kernel


def _block_budgets(m, n):
    # one block (the default for every small tensor), one slice per block,
    # and near-equal blocks of one or two slices
    return (tensor.KERNEL_BLOCK_ENTRIES, 1, 2 * n ** (m - 1))


@pytest.mark.parametrize(
    "m, n",
    [(m, n) for m in (2, 3, 4, 5, 6) for n in (1, 2, 5, 7)] + [(3, 6), (3, 10), (4, 6), (4, 10)],
)
def test_kernel_matches_naive_contraction_and_finite_differences(monkeypatch, m, n):
    # n = 6 and 10 are sizes where one gemv over a flat block sums in
    # another order than one gemv per n-by-n matrix would
    # a non-symmetric tensor: each trailing mode adds its own Jacobian term
    rng = np.random.default_rng(10 * m + n)
    data = rng.standard_normal((n,) * m)
    x = rng.uniform(-1.5, 1.5, size=n)
    ref = tvp_naive(data, x)
    Jfd = fd_jacobian(lambda v: tvp_naive(data, v), x)
    for budget in _block_budgets(m, n):
        monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", budget)
        y, J = _split_passes(Tensor(data), x)
        assert np.allclose(y, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max()))
        assert np.abs(J - Jfd).max() <= 1e-6 * max(1.0, np.abs(J).max())
        assert np.array_equal(tvp(Tensor(data), x), y)


def _split_passes(T, x):
    """(y, J) from the y-pass, which leaves P_{m-2} in J, and the J-pass."""
    J = np.empty((T.dim, T.dim))
    y = T.tvp(x, J)
    return y, T.jacobian_pass(x, J)


@pytest.mark.parametrize("m, n", [(2, 7), (3, 7), (3, 10), (4, 6), (5, 4), (6, 3)])
def test_split_passes_match_the_fused_reference_kernel(monkeypatch, m, n):
    # the y-pass's y is tvp's bit for bit, with or without P; P plus the
    # J-pass is the fused chain's Jacobian to rounding, over one block or
    # several, and bit for bit for m <= 3 over one block, where both add
    # the same two terms
    rng = np.random.default_rng(40 * m + n)
    data = rng.standard_normal((n,) * m)
    x = rng.uniform(-1.5, 1.5, size=n)
    y_ref, J_ref = fused_kernel(data, x)
    one_block, *more = _block_budgets(m, n)
    for budget in (one_block, *more):
        monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", budget)
        T = Tensor(data)
        y, J = _split_passes(T, x)
        assert np.array_equal(y, T.tvp(x))
        assert np.abs(y - y_ref).max() <= 1e-14 * np.abs(y_ref).max()
        assert np.abs(J - J_ref).max() <= 1e-14 * np.abs(J_ref).max()
        if m <= 3 and budget == one_block:
            assert np.array_equal(J, J_ref)
        assert np.array_equal(tvp_jacobian(T, x), J)


def test_the_passes_write_into_strided_rows():
    # the solver's Jacobian block is M[:n, 1:] of an (n+1)-by-(n+1) matrix:
    # the y-pass and the J-pass fill it as they fill a fresh array, and touch
    # nothing else of M
    T = random_instance(4, 5, seed=17)
    x = np.linspace(0.5, 1.0, 5)
    M = np.full((6, 6), 7.0)
    T.tvp(x, M[:5, 1:])
    T.jacobian_pass(x, M[:5, 1:])
    assert np.array_equal(M[:5, 1:], _split_passes(T, x)[1])
    assert (M[5] == 7.0).all() and (M[:, 0] == 7.0).all()


@pytest.mark.parametrize("m, n", [(2, 9), (3, 7), (5, 4)])
def test_slice_blocks_are_near_equal_and_cover_every_slice(m, n):
    T = Tensor(np.zeros((n,) * m))
    for budget in (1, 2 * n ** (m - 1), 3 * n ** (m - 1), n**m, 1 << 20):
        blocks = tensor._slice_blocks(T, budget)
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        assert (blocks[0][0], blocks[-1][1]) == (0, n)
        sizes = [i1 - i0 for i0, i1 in blocks]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
        assert max(sizes) <= max(1, budget // n ** (m - 1))
        assert len(blocks) == -(-n // max(1, budget // n ** (m - 1)))
        assert (len(blocks) == 1) == (n**m <= budget)  # the kernel's inline test


def test_kernel_leaves_the_input_untouched(monkeypatch):
    rng = np.random.default_rng(13)
    for m in (2, 3, 4):
        T = Tensor(rng.uniform(0.0, 1.0, size=(3,) * m))
        before = np.array(T.data)
        for budget in _block_budgets(m, 3):
            monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", budget)
            y, J = _split_passes(T, rng.uniform(0.1, 1.0, size=3))
            y += 1.0
            J += 1.0
            y = tvp(T, rng.uniform(0.1, 1.0, size=3))
            y += 1.0
            assert np.array_equal(T.data, before)


def _own_pool(monkeypatch, workers):
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    monkeypatch.setattr(tensor, "_POOL", (os.getpid(), pool))
    return pool


def test_multi_block_result_does_not_depend_on_the_worker_count(monkeypatch):
    # each block writes only its own rows of y, P and J in place, so 1
    # worker, the default pool and more workers than cores under frequent
    # thread switches agree bit for bit, and with the fused reference kernel
    # to rounding
    rng = np.random.default_rng(14)
    cases = []
    for m, n in ((3, 23), (4, 9), (6, 4)):
        T = Tensor(rng.uniform(0.0, 1.0, size=(n,) * m))
        x = rng.uniform(0.1, 1.0, size=n)
        budget = 2 * n ** (m - 1)
        monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", budget)
        assert len(tensor._slice_blocks(T, budget)) > 1
        default = _split_passes(T, x), tvp(T, x)
        y_ref, J_ref = fused_kernel(T.data, x)
        assert np.abs(default[0][1] - J_ref).max() <= 1e-14 * np.abs(J_ref).max()
        assert np.abs(default[1] - y_ref).max() <= 1e-14 * np.abs(y_ref).max()
        cases.append((T, x, budget, default))
    interval = sys.getswitchinterval()
    for workers in (1, 8):
        with _own_pool(monkeypatch, workers) as pool:
            sys.setswitchinterval(1e-6)
            try:
                for T, x, budget, default in cases:
                    monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", budget)
                    for _ in range(20):
                        (y, J), y_only = _split_passes(T, x), tvp(T, x)
                        assert np.array_equal(y, default[0][0])
                        assert np.array_equal(J, default[0][1])
                        assert np.array_equal(y_only, default[1])
            finally:
                sys.setswitchinterval(interval)
        assert tensor._POOL[1] is pool


def test_a_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", 1)

    def fails(block, x, *out):
        raise FloatingPointError("block %d" % block.shape[0])

    monkeypatch.setattr(tensor, "_tvp_rows", fails)
    with pytest.raises(FloatingPointError):
        tvp(random_instance(3, 4, seed=1), np.ones(4))


def test_single_block_solves_never_make_the_pool(monkeypatch):
    from teneig import pta_solve, solve_dominant

    monkeypatch.setattr(tensor, "_POOL", None)
    for A in (dense_demo(), random_instance(4, 10, seed=15)):
        assert len(tensor._slice_blocks(A, tensor.KERNEL_BLOCK_ENTRIES)) == 1
        assert solve_dominant(A).status == "converged"
        assert pta_solve(A).status == "converged"
    assert tensor._POOL is None


def _kernel_in_child(T, x, expected):
    # runs in a forked child: exit 0 iff a fresh pool gives the same result
    J = tvp_jacobian(T, x)
    fresh = tensor._POOL is not None and tensor._POOL[0] == os.getpid()
    os._exit(0 if fresh and np.array_equal(J, expected) else 1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_forked_child_makes_its_own_pool(monkeypatch):
    # a forked child inherits the parent's executor but none of its threads;
    # work handed to it would never run
    monkeypatch.setattr(tensor, "KERNEL_BLOCK_ENTRIES", 1)
    T = random_instance(3, 6, seed=16)
    x = np.linspace(0.5, 1.0, 6)
    expected = tvp_jacobian(T, x)
    assert tensor._POOL[0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(
        target=_kernel_in_child, args=(T, x, expected)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on the inherited pool")
    assert child.exitcode == 0


def _essentially_nonnegative(rng, m, n):
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    data[(np.arange(n),) * m] = rng.uniform(-2.0, 0.0, size=n)
    return Tensor(data)


def _blend_contraction(T, S, tau, x):
    """H_tau's blended contraction tau*T x^{m-1} + (1-tau)*S x^{m-1} and its
    x-Jacobian, as the solver's y-pass and J-pass evaluate them (lam = 0)."""
    n = x.shape[0]
    M, R = np.empty((n + 1, n + 1)), np.empty((2, n + 1))
    _j_pass(T, S, tau, 0.0, x, M, _y_pass(T, S, tau, 0.0, x, M, R))
    return R[0, :n], M[:n, 1:]


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 3), (5, 2)])
def test_closed_form_shift_matches_dense_alpha_shift(m, n):
    # at tau = 1 the passes give T's alpha and eps terms in closed form
    rng = np.random.default_rng(20 * m + n)
    A = _essentially_nonnegative(rng, m, n)
    S = start_system(np.ones(n), np.ones(n), m)
    x = rng.uniform(0.1, 1.5, size=n)
    for eps in (0.0, 1e-9, 0.3):
        alpha, data = alpha_shift_dense(A.data, eps)
        T = Tensor(data)
        op = ShiftedTensor(A, require_essentially_nonnegative(A)[0], eps)
        assert op.alpha == alpha and (op.A.order, op.A.dim) == (m, n)
        y, J = _blend_contraction(op, S, 1.0, x)
        assert np.allclose(y, tvp(T, x), rtol=1e-13, atol=0)
        assert np.allclose(J, tvp_jacobian(T, x), rtol=1e-13, atol=0)


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 3), (5, 2)])
def test_closed_form_start_matches_dense_rank_one_start(m, n):
    # at tau = 0 the passes give S's contraction (b.x)^{m-1} c in closed form
    rng = np.random.default_rng(30 * m + n)
    a = rng.uniform(0.2, 2.0, size=n)
    b = rng.uniform(0.2, 2.0, size=n)
    S = start_system(a, b, m)
    dense = rank_one_start(a, b, m)
    assert S.order == m and S.c.shape == S.b.shape == (n,)
    T = ShiftedTensor(dense, 0.0)
    for _ in range(3):
        x = rng.uniform(0.1, 1.5, size=n)
        y, J = _blend_contraction(T, S, 0.0, x)
        assert np.allclose(y, tvp(dense, x), rtol=1e-13, atol=0)
        assert np.allclose(J, tvp_jacobian(dense, x), rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        start_system(a, -b, m)


def test_shifted_operator_reaches_the_input_through_its_kernel_methods(monkeypatch):
    # a solve reads A only through its y-pass Tensor.tvp and its J-pass
    # Tensor.jacobian_pass, T's and S's other terms being closed form, and
    # the report counts every call, unperturbed or perturbed
    from teneig import solve_dominant

    calls = {}
    for name in ("tvp", "jacobian_pass"):
        real = getattr(Tensor, name)

        def counted(self, x, *out, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(self, x, *out)

        monkeypatch.setattr(Tensor, name, counted)
    for assume in ("auto", "reducible"):
        calls.clear()
        rep = solve_dominant(random_instance(3, 10, seed=1), assume=assume)
        assert rep.status == "converged" and rep.finish_sweeps == 0
        assert rep.perturbed is (assume == "reducible")
        assert (calls["tvp"], calls["jacobian_pass"]) == (rep.y_passes, rep.jacobian_passes)


def test_scan_alpha_is_alpha_shifts_alpha():
    for A in (dense_demo(), sparse_ring_demo(), Tensor(np.zeros((2, 2, 2)))):
        assert require_essentially_nonnegative(A)[0] == alpha_shift_dense(A.data)[0]
    bad = np.zeros((2, 2, 2))
    bad[1, 0, 0] = -1.0
    with pytest.raises(EssentialNonnegativityError):
        require_essentially_nonnegative(Tensor(bad))


# ------------------------------------------- semi-symmetrization (the oracle)


def test_semi_symmetrize_two_permutation_average():
    data = np.zeros((2, 2, 2))
    data[0, 0, 1] = 2.0
    out = semi_symmetrize_naive(data)
    assert out[0, 0, 1] == 1.0
    assert out[0, 1, 0] == 1.0
    assert np.count_nonzero(out) == 2


def test_semi_symmetrize_fixed_point():
    rng = np.random.default_rng(1)
    sym = semi_symmetrize_naive(rng.standard_normal((3, 3, 3)))
    again = semi_symmetrize_naive(sym)
    assert np.allclose(sym, again, atol=1e-15)


def test_semi_symmetrize_preserves_tvp_relative():
    rng = np.random.default_rng(2)
    T = Tensor(rng.uniform(0.0, 1.0, size=(4, 4, 4)))
    Ts = Tensor(semi_symmetrize_naive(T.data))
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=4)
        y = tvp(T, x)
        assert np.linalg.norm(tvp(Ts, x) - y) <= 1e-12 * np.linalg.norm(y)


@given(small_tensors().flatmap(lambda T: st.tuples(st.just(T), vectors_for(T))))
def test_semi_symmetrize_preserves_tvp_any(tx):
    T, x = tx
    scale = 1.0 + np.abs(T.data).max() * (1.0 + np.abs(x).max()) ** (T.order - 1)
    diff = tvp(Tensor(semi_symmetrize_naive(T.data)), x) - tvp(T, x)
    assert np.linalg.norm(diff) <= 1e-10 * scale


# ------------------------------------------------------ shifts, perturbations


def test_alpha_shift_demo_values():
    alpha, T = alpha_shift_dense(dense_demo().data)
    assert alpha == require_essentially_nonnegative(dense_demo())[0] == pytest.approx(6.32, abs=1e-12)
    assert (T >= 0).all()
    alpha2, _ = alpha_shift_dense(sparse_ring_demo().data)
    assert alpha2 == require_essentially_nonnegative(sparse_ring_demo())[0] == 2.0
    # with eps > 0: the dense T, equal to the two-copy build bit for bit
    alpha3, T3 = alpha_shift_dense(dense_demo().data, 1e-9)
    assert alpha3 == alpha
    assert np.array_equal(T3, add_identity(perturb(dense_demo(), 1e-9), alpha).data)


def test_alpha_shift_zero_tensor():
    alpha, T = alpha_shift_dense(np.zeros((2, 2, 2)))
    assert alpha == require_essentially_nonnegative(Tensor(np.zeros((2, 2, 2))))[0] == 1.0
    assert np.array_equal(T, unit_tensor_naive(3, 2))


def test_alpha_shift_rejects_negative_off_diagonal():
    bad = np.zeros((2, 2, 2))
    bad[1, 0, 0] = -1.0
    with pytest.raises(EssentialNonnegativityError) as err:
        require_essentially_nonnegative(Tensor(bad))
    assert err.value.index == (2, 1, 1)  # 1-based


@given(small_tensors(lo=0.0, hi=5.0))
def test_alpha_shift_nonnegative_output(T):
    # make the diagonal negative; the result must still be nonnegative
    data = np.array(T.data)
    n = T.dim
    data[(np.arange(n),) * T.order] = -np.abs(data[(np.arange(n),) * T.order])
    _, shifted = alpha_shift_dense(data)
    assert (shifted >= 0).all()
    # A's contraction plus the closed-form shift maps positive x to y >= 0 too
    A = Tensor(data)
    alpha = require_essentially_nonnegative(A)[0]
    x = np.linspace(0.5, 1.5, n)
    y = tvp(A, x)
    tensor._add_shift_terms(y, x, x ** (T.order - 1), T.order, alpha, 0.0)
    assert (y >= 0).all()


def test_perturb():
    E = perturb(Tensor(np.zeros((2, 2, 2))), 1e-9)
    assert np.array_equal(E.data, np.full((2, 2, 2), 1e-9))
    with pytest.raises(ValueError):
        perturb(E, 0.0)
    with pytest.raises(ValueError):
        perturb(E, -1e-3)


def test_add_identity_and_diagonal():
    T = add_identity(Tensor(np.zeros((3, 3, 3))), 2.5)
    assert np.array_equal(T.data[(np.arange(3),) * 3], [2.5, 2.5, 2.5])
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
    I = Tensor(unit_tensor_naive(3, 4))
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
    assert np.allclose(tvp(Tensor(unit_tensor_naive(m, n)), x), x ** (m - 1), rtol=1e-13)


# --------------------------------------------------- irreducibility surrogate


def test_irreducibility_sparse_demo():
    assert weak_irreducibility_check(sparse_ring_demo())


def test_irreducibility_diagonal_false():
    assert not weak_irreducibility_check(Tensor(unit_tensor_naive(3, 3)))
    assert not weak_irreducibility_check(Tensor(unit_tensor_naive(2, 2)))


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


# ---------------------------------------------------------------- input scans


@st.composite
def planted_tensors(draw):
    """m = 2..5, n = 1..6: a sparse nonnegative pattern, a diagonal of either
    sign, and negative entries, -0.0 among them, planted at drawn
    multi-indices (on the diagonal when all of a drawn index's entries
    coincide)."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    data = np.where(rng.random((n,) * m) < density, rng.uniform(0.1, 1.0, (n,) * m), 0.0)
    data[(np.arange(n),) * m] = rng.uniform(-1.0, 1.0, n)
    index = st.tuples(*[st.integers(0, n - 1)] * m)
    on_diagonal = st.integers(0, n - 1).map(lambda i: (i,) * m)
    for idx in draw(st.lists(st.one_of(index, on_diagonal), max_size=4)):
        data[idx] = -draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e3)))
    return Tensor(data)


@given(planted_tensors(), st.sampled_from([1, 7, 100, 1 << 16]))
def test_scans_match_full_mask_oracles(T, block):
    # small blocks put several blocks, and a short last one, in one scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "SCAN_BLOCK_ENTRIES", block)
        irreducible = weak_irreducibility_check(T)
    assert irreducible == weak_irreducibility_naive(T.data)
    scanned = _scan_matches_naive(T, essential_nonnegativity_violation_naive(T.data))
    if scanned is not None:
        assert scanned[0] == alpha_shift_dense(T.data)[0]


def _scan_matches_naive(T, expected):
    """require_essentially_nonnegative(T) raises at the 1-based index
    expected, or, when expected is None, returns (alpha, complete) with
    complete as the full-mask oracle has it; returns what it returned."""
    if expected is not None:
        with pytest.raises(EssentialNonnegativityError) as err:
            require_essentially_nonnegative(T)
        assert err.value.index == expected
        return None
    alpha, complete = require_essentially_nonnegative(T)
    assert complete is off_diagonal_positive_naive(T.data)
    return alpha, complete


@pytest.mark.parametrize("scan", [require_essentially_nonnegative, weak_irreducibility_check])
def test_input_scans_allocate_no_full_mask(scan):
    # an n^m bool mask alone would be 0.125x the input
    import tracemalloc

    A = random_instance(3, 100, seed=60)
    tracemalloc.start()
    try:
        scan(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.02 * A.data.nbytes


def _ones_with(m, n, entries):
    data = np.ones((n,) * m)
    for flat, value in entries.items():
        data.reshape(-1)[flat] = value
    return Tensor(data)


@pytest.mark.parametrize("m, n", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3)])
def test_nonnegativity_scan_edge_offsets(m, n):
    # The off-diagonal entries run from flat offset 1 to n^m - 2, between
    # the first and last diagonal entries; a diagonal entry of either sign
    # and a -0.0 are never violations.
    last = n**m - 1
    cases = [({0: -1.0, last: -1.0}, None)]
    if n > 1:
        cases += [
            ({1: -2.0}, (1,) * (m - 1) + (2,)),
            ({last - 1: -2.0}, (n,) * (m - 1) + (n - 1,)),
            ({last - 1: -2.0, 1: -0.0}, (n,) * (m - 1) + (n - 1,)),
            ({1: -0.0, last - 1: -0.0, 0: -1.0}, None),
        ]
    for entries, expected in cases:
        T = _ones_with(m, n, entries)
        _scan_matches_naive(T, expected)
        assert essential_nonnegativity_violation_naive(T.data) == expected


@pytest.mark.parametrize("block", [1, 7, 100])
@pytest.mark.parametrize("tail, irreducible", [(None, False), ((5, 5, 0), True)])
def test_irreducibility_scan_mixes_zero_free_and_sparse_blocks(monkeypatch, block, tail, irreducible):
    # Slices 0, 1 and 3 are zero-free, 2 and 4 hold one entry each, and 5 is
    # empty (nothing leaves node 5) or links 5 -> 0.  At block 100 a scan
    # block holds two slices, so zero-free and sparse slices share one.
    rng = np.random.default_rng(4)
    data = rng.uniform(0.1, 1.0, (6, 6, 6))
    data[[2, 4, 5]] = 0.0
    data[2, 0, 1] = data[4, 3, 3] = 1.0
    if tail is not None:
        data[tail] = 1.0
    monkeypatch.setattr(tensor, "SCAN_BLOCK_ENTRIES", block)
    assert weak_irreducibility_check(Tensor(data)) is irreducible
    assert weak_irreducibility_naive(data) is irreducible


def test_nonnegativity_scan_holds_no_mask_on_valid_input():
    # Row minima only: n-1 floats.  A 2^16-entry bool mask would be ~0.008x.
    import tracemalloc

    A = random_instance(3, 100, seed=60)
    tracemalloc.start()
    try:
        require_essentially_nonnegative(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.001 * A.data.nbytes


# ------------------------------------------------------------------ EigenPair


def test_eigenpair_normalizes():
    p = EigenPair(2.0, np.array([3.0, 4.0]))
    assert abs(p.x @ p.x - 1.0) <= 1e-12
    assert p.lam == 2.0


def test_eigenpair_rejects_zero_vector():
    with pytest.raises(ValueError):
        EigenPair(1.0, np.zeros(3))
