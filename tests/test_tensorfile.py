import contextlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from teneig import Tensor, cli, load_tensor, save_tensor, tensorfile
from teneig.instances import dense_demo, random_instance, sparse_ring_demo
from teneig.tensorfile import TensorFileError, dumps_tensor, loads_tensor

from oracles import dumps_tensor_loop, loads_dense_loop


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
    # np.fromstring reads a blank string as [-1.0]
    for blank in ("\n", " \t\n\r\n"):
        with pytest.raises(TensorFileError, match="dense payload has 0 entries, expected 1"):
            loads_tensor("order 2\ndim 1\nformat dense\n" + blank)
    with pytest.raises(TensorFileError, match="too many") as err:
        loads_tensor("order 2\ndim 2\nformat dense\n1 2 3 4\n5\n")
    assert err.value.line == 5


def test_dense_bad_token_reports_line():
    for bad in ("x", "\ud800"):  # a lone surrogate has no UTF-8 encoding
        with pytest.raises(TensorFileError, match="not a number") as err:
            loads_tensor("order 2\ndim 2\nformat dense\n1 2\n%s 4\n" % bad)
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


@pytest.mark.parametrize(
    "br", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=repr
)
def test_every_splitlines_break_ends_a_line(tmp_path, br):
    path = tmp_path / "t.ten"

    def both_reads(*lines):
        """loads_tensor of the lines joined by br, and load_tensor of a file of them."""
        text = br.join(lines) + br
        path.write_bytes(text.encode("utf-8"))
        return [lambda: loads_tensor(text), lambda: load_tensor(path)]

    for read in both_reads("# c", "order 2", "dim 2", "format dense", "1 2", "3 4"):
        assert read().data.tolist() == [[1, 2], [3, 4]]
    for lines, line in [
        (("# c", "order 2", "", "dim x", "format dense", "1 2 3 4"), 4),
        (("# c", "order 2", "dim 2", "format dense", "1 2 x 4"), 5),
    ]:
        for read in both_reads(*lines):
            with pytest.raises(TensorFileError) as err:
                read()
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


def test_save_rejects_unknown_format_before_opening_the_file(tmp_path):
    path = tmp_path / "keep.ten"
    save_tensor(path, dense_demo())
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_tensor(path, sparse_ring_demo(), fmt="json")
    assert path.read_bytes() == before


def test_blank_dense_file_is_rejected(tmp_path):
    path = tmp_path / "blank.ten"
    path.write_bytes(b"order 2\ndim 1\nformat dense\n\n")
    with pytest.raises(TensorFileError, match="dense payload has 0 entries, expected 1"):
        load_tensor(path)
    # a blank read piece adds no value: one value short stays short
    path.write_bytes(b"order 2\ndim 2\nformat dense\n1 2 3\n" + b"\n" * 40000)
    with pytest.raises(TensorFileError, match="dense payload has 3 entries, expected 4"):
        load_tensor(path)


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308)


@given(
    st.integers(2, 4).flatmap(
        lambda m: hnp.arrays(
            float,
            st.integers(1, 6).map(lambda n: (n,) * m),
            elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_VALUES),
        )
    ),
    st.sampled_from(["dense", "coo"]),
)
def test_dumps_matches_the_per_value_writer(data, fmt):
    T = Tensor(data)
    assert dumps_tensor(T, fmt=fmt) == dumps_tensor_loop(T, fmt=fmt)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _same_outcome(text):
    """loads_tensor and the line-by-line oracle give bit-identical data, or
    the same TensorFileError message and line."""
    try:
        want = loads_dense_loop(text)
    except TensorFileError as exc:
        with pytest.raises(TensorFileError) as err:
            loads_tensor(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    got = loads_tensor(text).data
    assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


GOOD_TOKENS = ("1", "-0", "+.5", "5.", "1E5", "2.5e-3", "-.0", "4.9406564584124654e-324",
               "1.7976931348623157e308", "0.10000000000000001", "007", "+1e+05")
ODD_TOKENS = ("1_0", "\u0661\u0662", "1e400", "nan", "-inf", "x", "1-2", "1..2", "0x1p3",
              "1e5e5", "1,", "1d5", "\x00", "\uff11")
# Separators the bulk parse reads as whitespace come first; the rest go to the line loop.
PAYLOAD_SEPS = (" ", "\t", "\n", "\r\n", "  \n\n", "\r", "\x0b", "\x0c",
                "\x1c", "\x85", "\u2028", "\xa0", " # note\n")
LINE_ENDS = ("\n", "\r\n", "\r", "\x0c", "\u2028", "\x1e")
BLANK_RUNS = ("", "", "\n", "\n\n\n", " \t\n \n", "\r\n\r\n")


@st.composite
def dense_texts(draw):
    plain = draw(st.booleans())
    seps = st.sampled_from(PAYLOAD_SEPS[: 8 if plain else None])
    ends = st.sampled_from(LINE_ENDS[: 2 if plain else None])
    order, dim = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    heads = ["order %d" % order, "dim %d" % dim, "format dense"]
    if draw(st.integers(0, 9)) == 0:
        heads[draw(st.integers(0, 2))] = draw(st.sampled_from(["order x", "dim 2 2", "format coo2", "order 1"]))
    text = ""
    for head in heads:
        text += draw(st.sampled_from(["", "", "\n", "# c\n", "  \t\r\n"]))
        text += head + draw(st.sampled_from(["", "", " # trailing", "\t"]))
        text += draw(ends)
    count = dim**order + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    tokens = st.sampled_from(GOOD_TOKENS) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if draw(st.integers(0, 3)) == 0:
        tokens = tokens | st.sampled_from(ODD_TOKENS)
    text += draw(st.sampled_from(BLANK_RUNS))
    for _ in range(max(count, 0)):
        text += draw(tokens) + draw(seps)
    return text + draw(st.sampled_from(BLANK_RUNS))


@given(dense_texts())
@settings(max_examples=200)
def test_loads_matches_the_per_token_parser(text):
    _same_outcome(text)


JUNK_AFTER_THE_VALUES = "order 2\ndim 2\nformat dense\n1 2 3 4 junk\n"


def test_junk_after_the_values_is_not_a_number():
    with pytest.raises(TensorFileError, match="not a number: 'junk'") as err:
        loads_tensor(JUNK_AFTER_THE_VALUES)
    assert err.value.line == 4


def _load_as_text(path):
    """The whole-text read load_tensor falls back to."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TensorFileError("not UTF-8 text (%s)" % exc) from None
    return loads_tensor(text)


def _same_file_outcome(path):
    """load_tensor and the whole-text read give bit-identical data, or the
    same TensorFileError message and line."""
    try:
        want = _load_as_text(path).data
    except TensorFileError as exc:
        with pytest.raises(TensorFileError) as err:
            load_tensor(path)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    got = load_tensor(path).data
    assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


@given(dense_texts())
@settings(max_examples=200)
def test_load_matches_the_text_read(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "dense_text.ten"
    path.write_bytes(text.encode("utf-8"))
    _same_file_outcome(path)


BLOCK = tensorfile._READ_SIZE
ONE_LINE = " ".join(["0.25"] * 40000)
# 40000 values, separated by every ASCII whitespace byte but the line breaks
MIXED_SPACES_LINE = b"".join(b"0.%d%s" % (i, b" \t\v\f"[i % 4 : i % 4 + 1]) for i in range(40000))


@pytest.mark.parametrize(
    "data",
    [
        b"# c\n" * BLOCK + b"order 2\ndim 2\nformat dense\n1 2 3 4\n",  # header after the first block
        b"#" * (BLOCK + 10) + b"\norder 2\ndim 2\nformat dense\n1 2 3 4\n",  # no line break in the first block
        b"order 2\ndim 2\nformat dense\n1 2\n" + b"\n" * (BLOCK + 1) + b"3 4\n" + b"\n \t\r\n" * BLOCK,
        b"order 2\ndim 2\nformat dense\n1 2\n" + b"\n" * (BLOCK + 1) + b"3\n" + b"\n" * BLOCK,  # one short
        ("order 2\ndim 200\nformat dense\n" + ONE_LINE + "\n").encode(),
        ("order 2\ndim 200\nformat dense\n" + ONE_LINE + " 1\n").encode(),  # one too many
        b"order 2\rdim 2\rformat dense\r1 2\r3 4\r",
        ("order 2\rdim 200\rformat dense\r" + ONE_LINE.replace(" ", "\r")).encode(),
        b"order 2\r\ndim 2\r\nformat dense\r\n1 2\r\n3 4\r\n",
        b"order 2\ndim 2\nformat dense\n1 2\xff 3 4\n",  # an invalid UTF-8 byte
        ("order 2\ndim 200\nformat dense\n" + ONE_LINE[:20000]).encode() + b"\xe9" + ONE_LINE[20000:].encode(),
        "order 2\ndim 2\nformat dense\n1 2 \u0663 4\n".encode(),
        "\ufefforder 2\ndim 2\nformat dense\n1 2 3 4\n".encode(),
        "\ufeff\norder 2\ndim 2\nformat dense\n1 2 3 4\n".encode(),
        "# \u00e9t\u00e9\norder 2\ndim 2\nformat dense\n1 2 3 4\n".encode(),
        b"order 2\ndim 2\nformat coo\n1 2 5.0\n2 1 1e-3\n",
        b"order 2\ndim 2\nformat dense\n1 2 3 4\x00\n",
        b"order 9\ndim 9999\nformat dense\n1 2 3 4\n",  # too big to allocate
    ],
    ids=["late-header", "long-comment", "blank-runs", "blank-runs-short", "one-line", "one-line-long",
         "cr", "cr-one-line", "crlf", "bad-utf8", "bad-utf8-late", "arabic-digit", "bom", "bom-line",
         "utf8-comment", "coo", "nul", "huge"],
)
def test_load_edge_files_match_the_text_read(tmp_path, data):
    path = tmp_path / "e.ten"
    path.write_bytes(data)
    _same_file_outcome(path)


@pytest.fixture
def text_reads(monkeypatch):
    """Names of the text-path functions called: the per-token loop and the
    whole-text parse that load_tensor falls back to."""
    calls = []
    for name in ("_parse_dense", "loads_tensor"):
        real = getattr(tensorfile, name)

        def wrapped(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(tensorfile, name, wrapped)
    return calls


@pytest.mark.parametrize(
    "T",
    [dense_demo(), random_instance(2, 5, seed=2), random_instance(3, 24, seed=1),
     random_instance(4, 10, seed=1), Tensor(np.array([[5e-324, -0.0], [1.7976931348623157e308, 0.1]]))],
    ids=repr,
)
def test_saved_dense_files_take_the_streamed_read(tmp_path, text_reads, T):
    path = tmp_path / "t.ten"
    save_tensor(path, T)
    assert np.array_equal(_bits(load_tensor(path).data), _bits(T.data))
    assert text_reads == []


@pytest.mark.parametrize(
    "data",
    [
        "# \u00e9t\u00e9\norder 2\ndim 2\nformat dense\n1 2 3 4\n".encode(),
        b"order 2\r\ndim 2\r\nformat dense\r\n\r\n1 2\r\n3 4\r\n",
        b"order 2\rdim 2\rformat dense\r1 2\r3 4",
        b"order 2\ndim 2\nformat dense\n1 2\n" + b"\n \t\n" * BLOCK + b"3 4\n",
        b"# c\n" * (BLOCK // 5) + b"order 2\ndim 2\nformat dense\n1 2 3 4\n",
        b"order 2\ndim 2\nformat dense\n1 2\n3 4\n",
        b"order 2\r\ndim 2\r\nformat dense\r\n1\t+.5\r\n5. 1E5",
        b"# c\n\norder 2 # o\ndim 2\nformat dense\n\n-0 2\x0b3\x0c4\r",
        b"order 2\rdim 2\r# c\rformat dense\r1 2\r3 4\r",
        "order 2\u2028dim 2\u2028format dense\u20281 2\n3 4\n".encode(),
        dumps_tensor(random_instance(3, 4, seed=1)).encode(),
        # no "\n" in the file: the first block is cut at its last "\r"
        dumps_tensor(random_instance(4, 16, seed=1)).replace("\n", "\r").encode(),
        # one payload line, each piece cut at its last whitespace byte
        b"order 2\ndim 200\nformat dense\n" + MIXED_SPACES_LINE,
    ],
    ids=["utf8-comment", "crlf", "cr", "blank-runs", "comments", "plain", "crlf-tokens", "vt-ff",
         "cr-comment", "u2028", "saved(3,4)", "cr-only(4,16)", "one-line-mixed-spaces"],
)
def test_plain_dense_files_take_the_streamed_read(tmp_path, text_reads, data):
    path = tmp_path / "t.ten"
    path.write_bytes(data)
    got = load_tensor(path).data
    assert text_reads == []
    assert np.array_equal(_bits(got), _bits(_load_as_text(path).data))


@pytest.mark.parametrize(
    "text",
    [
        "order 2\ndim 2\nformat dense\n1 2 # c\n3 4\n",  # comment in the payload
        "# c\rorder 2\norder 2\ndim 2\nformat dense\n1 2 3 4\n",  # "\r" breaks a line
        "order 2\ndim 2\nformat dense\n1_0 2 3 4\n",  # only float() reads 1_0
        "order 2\ndim 2\nformat dense\n\u0661 2 3 4\n",
    ],
)
def test_other_files_take_the_line_loop(tmp_path, text_reads, text):
    path = tmp_path / "t.ten"
    path.write_bytes(text.encode())
    _same_file_outcome(path)
    assert "loads_tensor" in text_reads


def test_a_numpy_warning_sends_the_text_to_the_line_loop(tmp_path, text_reads, monkeypatch):
    # numpy 1.x warns on unmatched text and returns the values read so far.
    def fromstring_1x(text, dtype=float, sep=" "):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.0, 2.0, 3.0, 4.0])

    monkeypatch.setattr(tensorfile.np, "fromstring", fromstring_1x)
    path = tmp_path / "t.ten"
    path.write_bytes(JUNK_AFTER_THE_VALUES.encode())
    with pytest.raises(TensorFileError, match="not a number: 'junk'") as err:
        load_tensor(path)
    assert err.value.line == 4
    assert text_reads == ["loads_tensor", "_parse_dense"]


def test_a_declined_file_is_bulk_parsed_once(tmp_path, monkeypatch, text_reads):
    T = random_instance(3, 24, seed=1)
    path = tmp_path / "t.ten"
    save_tensor(path, T)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("# note\n")
    parses = []
    real = tensorfile._bulk_dense

    def counted(*args):
        parses.append(real(*args))
        return parses[-1]

    monkeypatch.setattr(tensorfile, "_bulk_dense", counted)
    assert np.array_equal(_bits(load_tensor(path).data), _bits(T.data))
    assert [values is None for values in parses] == [True]  # the streamed read declined
    assert text_reads == ["loads_tensor", "_parse_dense"]


def test_a_dense_load_reads_finiteness_once(tmp_path, monkeypatch):
    # the bulk parse leaves finiteness to the Tensor's own check, which
    # reads every entry once
    T = random_instance(3, 24, seed=1)
    path = tmp_path / "t.ten"
    save_tensor(path, T)
    read = []
    real = np.isfinite

    def counted(a, *args, **kwargs):
        read.append(np.size(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    assert np.array_equal(_bits(load_tensor(path).data), _bits(T.data))
    assert sum(read) == T.data.size


@pytest.mark.parametrize("bad", ["nan", "-inf", "1e400"])
def test_a_value_not_finite_sends_a_dense_file_to_the_line_loop(tmp_path, text_reads, bad):
    # numpy parses the value; the Tensor's check refuses it, and the text
    # read gives the error and its line
    path = tmp_path / "t.ten"
    path.write_text("order 2\ndim 2\nformat dense\n1 2\n3 %s\n" % bad)
    with pytest.raises(TensorFileError, match="finite") as err:
        load_tensor(path)
    assert err.value.line == 5
    assert text_reads == ["loads_tensor", "_parse_dense"]
    _same_file_outcome(path)


def test_a_header_line_cut_by_the_first_block_is_read_whole(tmp_path):
    # The first block ends just after "format dense"; the line goes on.
    head = b"order 2\ndim 2\n"
    pad = BLOCK - len(head) - len(b"format dense") - 1
    path = tmp_path / "t.ten"
    path.write_bytes(b"#" * pad + b"\n" + head + b"format dense5\n1 2 3\n")
    with pytest.raises(TensorFileError, match="expected 'format dense' or 'format coo'"):
        load_tensor(path)


def test_a_non_ascii_byte_is_never_read_by_numpy(tmp_path, monkeypatch):
    # In a Latin-1 C locale numpy's separator test could take 0xa0 for a space.
    def latin1_fromstring(piece, dtype=float, sep=" "):
        return np.array([float(t) for t in piece.decode("latin-1").split()])

    monkeypatch.setattr(tensorfile.np, "fromstring", latin1_fromstring)
    path = tmp_path / "t.ten"
    path.write_bytes(b"order 2\ndim 2\nformat dense\n1 2\n" + b"\n" * BLOCK + b"3\xa04\n")
    with pytest.raises(TensorFileError, match="not UTF-8 text"):
        load_tensor(path)


def _peak_ratio(call, T):
    call()  # warm-up: imports and lazily made state
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / T.data.nbytes


MEMORY_SHAPES = ((3, 24), (4, 10))


def test_load_peak_memory(tmp_path):
    for m, n in MEMORY_SHAPES:
        T = random_instance(m, n, seed=1)
        path = tmp_path / "t.ten"
        save_tensor(path, T)
        assert _peak_ratio(lambda: load_tensor(path), T) < 3.0, (m, n)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert _peak_ratio(lambda: load_tensor(path), T) < 3.0, (m, n, "cr-only")


def test_load_holds_about_one_tensor(tmp_path):
    # the Tensor takes the parsed array: a dense load peaks at that array
    # and one piece, a coo load at the array and the file's text
    g = np.random.default_rng(2)
    dense = random_instance(3, 40, seed=1)
    coo = Tensor(np.where(g.random((40,) * 3) < 0.01, g.uniform(0.0, 1.0, (40,) * 3), 0.0))
    for T, fmt, bound in ((dense, "dense", 1.25), (coo, "coo", 1.5)):
        path = tmp_path / ("t." + fmt)
        save_tensor(path, T, fmt=fmt)
        assert _peak_ratio(lambda: load_tensor(path), T) < bound, fmt


def test_a_one_line_payload_is_read_a_piece_at_a_time(tmp_path, text_reads):
    # payload pieces are cut at whitespace, so a payload with no line break
    # is not read whole
    T = random_instance(4, 16, seed=1)
    path = tmp_path / "t.ten"
    path.write_text("order 4\ndim 16\nformat dense\n" + " ".join("%.17g" % v for v in T.entries.tolist()) + "\n")
    assert np.array_equal(_bits(load_tensor(path).data), _bits(T.data))
    assert text_reads == []
    assert _peak_ratio(lambda: load_tensor(path), T) < 1.3


def test_save_peak_memory(tmp_path):
    for m, n in MEMORY_SHAPES:
        T = random_instance(m, n, seed=1)
        assert _peak_ratio(lambda: save_tensor(tmp_path / "t.ten", T), T) < 1.0, (m, n)


def test_cli_solve_peak_memory(tmp_path):
    T = random_instance(4, 10, seed=1)
    path = tmp_path / "t.ten"
    save_tensor(path, T)

    def solve():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", str(path), "--method", "both", "--json"]) in (0, 1)

    assert _peak_ratio(solve, T) < 3.5
