import numpy as np
import pytest

from teneig import require_essentially_nonnegative, weak_irreducibility_check
from teneig.instances import dense_demo, random_instance, sparse_ring_demo


def test_random_instance_is_deterministic():
    A = random_instance(3, 6, d=2, seed=123)
    B = random_instance(3, 6, d=2, seed=123)
    assert np.array_equal(A.data, B.data)
    C = random_instance(3, 6, d=2, seed=124)
    assert not np.array_equal(A.data, C.data)


def test_random_instance_entry_ranges():
    A = random_instance(3, 5, d=0, seed=0)
    diag = A.data[(np.arange(5),) * 3]
    assert ((diag >= -1.0) & (diag <= 0.0)).all()
    off = np.array(A.data)
    off[(np.arange(5),) * 3] = 0.5
    assert ((off >= 0.0) & (off <= 1.0)).all()
    require_essentially_nonnegative(A)


def test_random_instance_scaling_bound():
    A = random_instance(3, 4, d=3, seed=9)
    assert np.abs(A.data).max() <= 1e-3
    base = random_instance(3, 4, d=0, seed=9)
    assert np.allclose(A.data, base.data * 1e-3, rtol=1e-15, atol=0)


def test_random_instance_rejects_bad_sizes():
    with pytest.raises(ValueError):
        random_instance(1, 3)
    with pytest.raises(ValueError):
        random_instance(3, 0)
    with pytest.raises(ValueError):
        random_instance(3, 3, d=-1)


def test_demo_instances_shape_and_structure():
    D = dense_demo()
    assert D.order == 3 and D.dim == 3
    assert require_essentially_nonnegative(D) == (6.32, True)  # no zero off the diagonal
    assert weak_irreducibility_check(D)
    assert np.array_equal(D.data[(np.arange(3),) * 3], [-1.51, -5.32, -0.15])

    R = sparse_ring_demo()
    assert np.count_nonzero(R.data) == 6
    assert require_essentially_nonnegative(R) == (2.0, False)  # zeros off the diagonal
    assert weak_irreducibility_check(R)
