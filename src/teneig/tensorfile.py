"""Line-oriented text format for tensors.

A file starts with three header fields, then the payload::

    # anything after a hash is a comment
    order 3
    dim 3
    format coo
    3 1 1  1.0        # m 1-based indices, then the value
    1 3 3  1.0

Dense payloads (``format dense``) list all dim**order entries as
whitespace-separated numbers in lexicographic order, first index slowest,
with any line layout.  Coordinate payloads give one entry per line;
unspecified entries are zero and duplicate indices are rejected.  Values are
written with 17 significant digits so a round trip is exact.

Files move in pieces.  The writer yields the header, then a dense payload
in blocks of 64 six-value lines with one ``%`` call each, or a coo payload
with one ``%`` call (``"%.17g"`` is the routine behind ``format(v, ".17g")``,
so the text is the same as a per-value writer's); ``dumps_tensor`` joins the
pieces and ``save_tensor`` writes them one at a time.

``loads_tensor`` is the reference reader: it walks one ``str.splitlines``
of the text, so a line ends at any break that method knows, takes the
three header lines from its start, then parses the payload line by line,
calling ``float()`` on each token.  So every token ``float()`` accepts is
accepted, every value is the one ``float()`` gives, and every error carries
its line number.

``load_tensor`` reads a dense file without holding its text or bytes whole.
It reads the file in pieces of 16 KiB.  The first piece is cut after its
last ``\\n`` or ``\\r`` and gives the header; it is freed before the
payload is read again from the end of the header.  Each payload piece is
cut after its last ASCII whitespace byte, so a payload with no line break
is read a piece at a time too (a piece with no cut byte runs on to the
next ``\\n``).  One bulk parser takes the payload's pieces, with one
``np.fromstring`` call per piece into a preallocated array; it creates no
Python object per value.  The bulk parse keeps its result only if every
piece is ASCII, numpy raised nothing and warned nothing, and the pieces
gave exactly dim**order finite values; a blank piece gives none (numpy
would read it as -1).  Any other file (a coo file, a header not complete in
the first piece, or a dense payload with a comment, an odd token or a wrong
count) is read again from its start, whole, and given to ``loads_tensor``,
so it keeps that reader's values and errors.

Every reader hands the array it filled to the ``Tensor`` without a copy.
So ``load_tensor`` of a dense file peaks at the array, one piece and the
32 KiB that ``np.fromstring`` allocates per call: 1.13x the tensor's bytes
at (3,40), 1.77x at (4,10), whose array is 80 KB.  A coo load holds the
array and the file's text, 1.39x on a 1%-dense (3,40) tensor.
"""

from __future__ import annotations

import itertools
import warnings
from math import isfinite

import numpy as np

from .tensor import Tensor


class TensorFileError(ValueError):
    """Malformed tensor file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__("line %d: %s" % (line, message) if line else message)


def _meaningful_lines(text):
    """(lineno, body, end) for each line of text with anything before a '#',
    numbered as str.splitlines numbers them; end is the offset in text just
    past the line's break."""
    end = 0
    for lineno, raw in enumerate(text.splitlines(keepends=True), start=1):
        end += len(raw)
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body, end


def _header_int(lines, key):
    try:
        lineno, body, _ = next(lines)
    except StopIteration:
        raise TensorFileError("missing '%s' header" % key) from None
    parts = body.split()
    if len(parts) != 2 or parts[0] != key:
        raise TensorFileError("expected '%s <integer>', got %r" % (key, body), lineno)
    try:
        return int(parts[1])
    except ValueError:
        raise TensorFileError("expected an integer for '%s', got %r" % (key, parts[1]), lineno) from None


def _header(lines):
    """(order, dim, format, the offset just past the format line) from the
    first three of _meaningful_lines; lines is left at the payload."""
    order = _header_int(lines, "order")
    dim = _header_int(lines, "dim")
    if order < 2 or dim < 1:
        raise TensorFileError("need order >= 2 and dim >= 1, got order %d, dim %d" % (order, dim))
    try:
        lineno, body, end = next(lines)
    except StopIteration:
        raise TensorFileError("missing 'format' header") from None
    parts = body.split()
    if len(parts) != 2 or parts[0] != "format" or parts[1] not in ("dense", "coo"):
        raise TensorFileError("expected 'format dense' or 'format coo', got %r" % body, lineno)
    return order, dim, parts[1], end


def loads_tensor(text):
    """Parse a tensor from the text format, line by line."""
    lines = _meaningful_lines(text)
    order, dim, fmt, _ = _header(lines)
    if fmt == "coo":
        return _parse_coo(lines, order, dim)
    return _parse_dense(lines, order, dim)


# The bytes load_tensor reads at a time, and the bytes after which it cuts a
# piece: a line break in the header's piece, and in a payload's any ASCII
# whitespace (bytes.isspace's, which np.fromstring's " " separator matches).
_READ_SIZE = 1 << 14
_BREAKS = b"\n\r"
_SPACES = b" \t\n\r\v\f"


def _next_piece(fh, cuts=_BREAKS):
    """The next 16 KiB of a binary file cut after its last byte in cuts,
    with the file moved back to the cut; b"" at the end.  A full block with
    no such byte runs on to the next \\n."""
    block = fh.read(_READ_SIZE)
    if len(block) < _READ_SIZE:
        return block
    cut = max(map(block.rfind, cuts)) + 1
    if not cut:
        return block + fh.readline()
    fh.seek(cut - len(block), 1)
    return block[:cut]


def _bulk_dense(pieces, order, dim):
    """The data array of a dense payload given as byte pieces that each end
    between two values, with one np.fromstring call per piece; None when a
    piece has a non-ASCII byte, numpy raises or warns (as it does on a '#'),
    or the values are not dim**order finite numbers.  A blank piece is
    skipped: numpy reads it as -1."""
    try:
        values = np.empty(dim**order)
    except (ValueError, MemoryError):
        return None
    filled = 0
    # numpy 1.x warns and returns the values read so far on unmatched text,
    # where numpy 2 raises.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for piece in pieces:
            if not piece.isascii():
                return None
            if piece.isspace():
                continue
            try:
                got = np.fromstring(piece, dtype=float, sep=" ")
            except (ValueError, Warning):
                return None
            if filled + got.size > values.size or not np.isfinite(got).all():
                return None
            values[filled : filled + got.size] = got
            filled += got.size
    if filled != values.size:
        return None
    return values.reshape((dim,) * order)


def _value(tok, lineno):
    """float(tok), which must be finite."""
    try:
        value = float(tok)
    except ValueError:
        raise TensorFileError("not a number: %r" % tok, lineno) from None
    if not isfinite(value):
        raise TensorFileError("entries must be finite, got %r" % tok, lineno)
    return value


def _parse_dense(lines, order, dim):
    expected = dim**order
    values = []
    for lineno, body, _ in lines:
        values.extend([_value(tok, lineno) for tok in body.split()])
        if len(values) > expected:
            raise TensorFileError(
                "too many entries: expected %d for order %d, dim %d" % (expected, order, dim),
                lineno,
            )
    if len(values) != expected:
        raise TensorFileError(
            "dense payload has %d entries, expected %d" % (len(values), expected)
        )
    return Tensor._adopt(np.asarray(values).reshape((dim,) * order))


def _parse_coo(lines, order, dim):
    try:
        data = np.zeros((dim,) * order)
    except (ValueError, MemoryError) as exc:
        raise TensorFileError("cannot allocate order %d, dim %d: %s" % (order, dim, exc)) from None
    seen = set()
    for lineno, body, _ in lines:
        toks = body.split()
        if len(toks) != order + 1:
            raise TensorFileError(
                "expected %d indices and a value, got %d fields" % (order, len(toks)), lineno
            )
        try:
            idx = tuple(int(t) for t in toks[:order])
        except ValueError:
            raise TensorFileError("indices must be integers: %r" % body, lineno) from None
        for i in idx:
            if i < 1 or i > dim:
                raise TensorFileError("index %s out of range [1, %d]" % (idx, dim), lineno)
        if idx in seen:
            raise TensorFileError("duplicate index %s" % (idx,), lineno)
        seen.add(idx)
        data[tuple(i - 1 for i in idx)] = _value(toks[order], lineno)
    return Tensor._adopt(data)


def _load_plain_dense(fh):
    """The data array of a dense file opened in binary mode, read a piece
    of _next_piece at a time: the header's piece cut at a line break, the
    payload's at whitespace; None when the file needs the text path: a
    header not complete in the first piece, a coo file, or a payload
    _bulk_dense declines."""
    try:
        text = _next_piece(fh).decode("utf-8")
        # A temporary iterator, so the piece's line list is freed before _bulk_dense allocates.
        order, dim, fmt, end = _header(_meaningful_lines(text))
    except (UnicodeDecodeError, TensorFileError):
        return None
    if fmt != "dense":
        return None
    fh.seek(len(text[:end].encode("utf-8")))
    del text  # the payload is read again from the seek; free the piece first
    return _bulk_dense(iter(lambda: _next_piece(fh, _SPACES), b""), order, dim)


def load_tensor(path):
    """Read a tensor file from disk; a file that is not UTF-8 text is malformed."""
    with open(path, "rb") as fh:
        values = _load_plain_dense(fh)
        if values is None:
            fh.seek(0)
            try:
                text = fh.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TensorFileError("not UTF-8 text (%s)" % exc) from None
    if values is not None:
        return Tensor._adopt(values)
    return loads_tensor(text)


# One line of the dense payload, and the lines one % call formats at most.
_DENSE_ROW = "%.17g %.17g %.17g %.17g %.17g %.17g\n"
_DENSE_BLOCK_ROWS = 64


def _dense_payload(flat):
    """The dense payload, six values a line, in blocks of whole lines."""
    step = 6 * _DENSE_BLOCK_ROWS
    for pos in range(0, flat.size, step):
        values = flat[pos : pos + step].tolist()
        rows, rest = divmod(len(values), 6)
        tail = " ".join(["%.17g"] * rest) + "\n" if rest else ""
        yield (_DENSE_ROW * rows + tail) % tuple(values)


def _coo_payload(data):
    """One "i1 ... im value" line per nonzero, 1-based, first index slowest."""
    idx = np.nonzero(data)
    fields = [(i + 1).tolist() for i in idx] + [data[idx].tolist()]
    row = "%d " * data.ndim + "%.17g\n"
    return (row * len(fields[-1])) % tuple(v for entry in zip(*fields) for v in entry)


def _tensor_text(T, fmt):
    """The file's text in pieces: the header, then the payload, a dense one
    a block at a time."""
    if fmt not in ("dense", "coo"):
        raise ValueError("fmt must be 'dense' or 'coo'")
    head = "order %d\ndim %d\nformat %s\n" % (T.order, T.dim, fmt)
    if fmt == "coo":
        return [head, _coo_payload(T.data)]
    return itertools.chain([head], _dense_payload(T.entries))


def dumps_tensor(T, fmt="dense"):
    """Serialize a tensor to the text format."""
    return "".join(_tensor_text(T, fmt))


def save_tensor(path, T, fmt="dense"):
    """Write a tensor file; a later load reproduces the tensor exactly."""
    pieces = _tensor_text(T, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
