import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teneig import Tensor, load_tensor, save_tensor
from teneig.instances import dense_demo, random_instance, sparse_ring_demo
from teneig.tensorfile import TensorFileError, dumps_tensor, loads_tensor


def test_round_trip_dense(tmp_path):
    for T in (dense_demo(), random_instance(3, 4, seed=1), random_instance(2, 5, seed=2)):
        path = tmp_path / "t.ten"
        save_tensor(path, T)
        back = load_tensor(path)
        assert back.order == T.order and back.dim == T.dim
        assert np.array_equal(back.data, T.data)


def test_round_trip_coo(tmp_path):
    T = sparse_ring_demo()
    path = tmp_path / "s.ten"
    save_tensor(path, T, fmt="coo")
    back = load_tensor(path)
    assert np.array_equal(back.data, T.data)
    # sparse payload lists only the six nonzeros
    assert len(dumps_tensor(T, fmt="coo").strip().splitlines()) == 3 + 6


def test_full_precision_values(tmp_path):
    vals = np.array(
        [[0.1 + 0.2, 1.0 / 3.0], [np.pi, -2.2250738585072014e-308]]
    )
    T = Tensor(vals)
    path = tmp_path / "p.ten"
    save_tensor(path, T)
    assert np.array_equal(load_tensor(path).data, vals)


@given(
    st.integers(2, 3),
    st.integers(1, 3),
    st.sampled_from(["dense", "coo"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30)
def test_round_trip_random(order, dim, fmt, seed):
    rng = np.random.default_rng(seed)
    T = Tensor(rng.standard_normal((dim,) * order))
    assert np.array_equal(loads_tensor(dumps_tensor(T, fmt=fmt)).data, T.data)


def test_one_based_coo_indices():
    T = loads_tensor("order 3\ndim 2\nformat coo\n2 1 1 5.0\n")
    assert T.data[1, 0, 0] == 5.0
    assert np.count_nonzero(T.data) == 1


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\norder 2\ndim 2  # trailing comment\nformat dense\n1 2\n\n3 4\n"
    T = loads_tensor(text)
    assert np.array_equal(T.data, [[1.0, 2.0], [3.0, 4.0]])


def test_missing_headers():
    with pytest.raises(TensorFileError, match="order"):
        loads_tensor("")
    with pytest.raises(TensorFileError, match="dim"):
        loads_tensor("order 3\n")
    with pytest.raises(TensorFileError, match="format"):
        loads_tensor("order 3\ndim 2\n")
    with pytest.raises(TensorFileError, match="format"):
        loads_tensor("order 3\ndim 2\nformat fancy\n")
    with pytest.raises(TensorFileError, match="order"):
        loads_tensor("order one\ndim 2\nformat dense\n")
    with pytest.raises(TensorFileError):
        loads_tensor("order 1\ndim 2\nformat dense\n1 1\n")


def test_dense_payload_count_checked():
    with pytest.raises(TensorFileError, match="expected 4"):
        loads_tensor("order 2\ndim 2\nformat dense\n1 2 3\n")
    with pytest.raises(TensorFileError, match="too many") as err:
        loads_tensor("order 2\ndim 2\nformat dense\n1 2 3 4\n5\n")
    assert err.value.line == 5


def test_dense_bad_token_reports_line():
    with pytest.raises(TensorFileError, match="not a number") as err:
        loads_tensor("order 2\ndim 2\nformat dense\n1 2\nx 4\n")
    assert err.value.line == 5


@pytest.mark.parametrize(
    "payload, line",
    [
        ("format dense\n1 2\n3 nan\n", 5),
        ("format dense\n1 inf 3 4\n", 4),
        ("format dense\n1 2 3\n1e400\n", 5),  # overflows to inf
        ("format coo\n1 1 1.0\n2 1 -inf\n", 5),
    ],
)
def test_nonfinite_entry_reports_line(payload, line):
    with pytest.raises(TensorFileError, match="finite") as err:
        loads_tensor("order 2\ndim 2\n" + payload)
    assert err.value.line == line


def test_coo_errors_report_line():
    head = "order 3\ndim 2\nformat coo\n"
    with pytest.raises(TensorFileError, match="out of range") as err:
        loads_tensor(head + "1 1 3 2.0\n")
    assert err.value.line == 4
    with pytest.raises(TensorFileError, match="out of range"):
        loads_tensor(head + "0 1 1 2.0\n")
    with pytest.raises(TensorFileError, match="duplicate"):
        loads_tensor(head + "1 1 2 2.0\n1 1 2 3.0\n")
    with pytest.raises(TensorFileError, match="fields"):
        loads_tensor(head + "1 1 2.0\n")
    with pytest.raises(TensorFileError, match="not a number"):
        loads_tensor(head + "1 1 2 two\n")
    with pytest.raises(TensorFileError, match="integers"):
        loads_tensor(head + "1 1 1.5 2.0\n")


def test_unspecified_coo_entries_are_zero():
    T = loads_tensor("order 2\ndim 3\nformat coo\n1 2 7.0\n")
    assert T.data[0, 1] == 7.0
    assert np.count_nonzero(T.data) == 1


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_tensor(tmp_path / "nope.ten")


def test_load_non_utf8_file_is_malformed(tmp_path):
    path = tmp_path / "latin1.ten"
    path.write_bytes("order 2\ndim 1\nformat dense\n# d\xe9j\xe0 vu\n1\n".encode("latin-1"))
    with pytest.raises(TensorFileError, match="not UTF-8 text") as err:
        load_tensor(path)
    assert err.value.line is None


def test_dumps_rejects_unknown_format():
    with pytest.raises(ValueError):
        dumps_tensor(sparse_ring_demo(), fmt="json")
