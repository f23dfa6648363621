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

``loads_tensor`` is the reference reader: it finds the three header lines
one at a time, at any line break ``str.splitlines`` breaks at, then parses
the payload line by line, calling ``float()`` on each token.  So every token
``float()`` accepts is accepted, every value is the one ``float()`` gives,
and every error carries its line number.

``load_tensor`` reads a dense file without holding its text or bytes whole:
it reads the header from the file's first 16 KiB, cut at its last ``\n`` or
``\r``, and then passes the payload's bytes, 16 KiB and the rest of a line at
a time, to one bulk parser, with one ``np.fromstring`` call per piece into a
preallocated array; it creates no Python object per value.  The bulk parse
keeps its result only if every piece is ASCII, numpy raised nothing and
warned nothing, and the pieces gave exactly dim**order finite values; a
blank piece gives none (numpy would read it as -1).  Any other file (a coo
file, a header not complete in the first block, or a dense payload with a
comment, an odd token or a wrong count) is read again from its start, whole,
and given to ``loads_tensor``, so it keeps that reader's values and errors.
"""

from __future__ import annotations

import itertools
import re
import warnings
from math import isfinite

import numpy as np

from .tensor import Tensor


class TensorFileError(ValueError):
    """Malformed tensor file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__("line %d: %s" % (line, message) if line else message)


# The line breaks of str.splitlines.
_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _meaningful_lines(text, head_end):
    """(lineno, body) for each line of text with anything before a '#',
    numbered as str.splitlines numbers them.  The first three, the header,
    are found one at a time by a search for the next line break, and
    head_end[0] is set to the offset after the third; the lines after it
    come from one splitlines() of the rest."""
    pos = lineno = found = 0
    while found < 3 and pos < len(text):
        brk = _BREAK.search(text, pos)
        body = text[pos : brk.start() if brk else None].split("#", 1)[0].strip()
        pos = head_end[0] = brk.end() if brk else len(text)
        lineno += 1
        if body:
            found += 1
            yield lineno, body
    for lineno, raw in enumerate(text[pos:].splitlines(), start=lineno + 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _header_int(lines, key):
    try:
        lineno, body = next(lines)
    except StopIteration:
        raise TensorFileError("missing '%s' header" % key) from None
    parts = body.split()
    if len(parts) != 2 or parts[0] != key:
        raise TensorFileError("expected '%s <integer>', got %r" % (key, body), lineno)
    try:
        return int(parts[1])
    except ValueError:
        raise TensorFileError("expected an integer for '%s', got %r" % (key, parts[1]), lineno) from None


def _header(text):
    """(order, dim, format, the payload's lines, the payload's offset in text)."""
    head_end = [0]
    lines = _meaningful_lines(text, head_end)
    order = _header_int(lines, "order")
    dim = _header_int(lines, "dim")
    if order < 2 or dim < 1:
        raise TensorFileError("need order >= 2 and dim >= 1, got order %d, dim %d" % (order, dim))
    try:
        lineno, body = next(lines)
    except StopIteration:
        raise TensorFileError("missing 'format' header") from None
    parts = body.split()
    if len(parts) != 2 or parts[0] != "format" or parts[1] not in ("dense", "coo"):
        raise TensorFileError("expected 'format dense' or 'format coo', got %r" % body, lineno)
    return order, dim, parts[1], lines, head_end[0]


def loads_tensor(text):
    """Parse a tensor from the text format, line by line."""
    order, dim, fmt, lines, _ = _header(text)
    if fmt == "coo":
        return _parse_coo(lines, order, dim)
    return _parse_dense(lines, order, dim)


# The bytes load_tensor reads at a time.
_READ_SIZE = 1 << 14


def _bulk_dense(pieces, order, dim):
    """The data array of a dense payload given as byte pieces of whole
    lines, with one np.fromstring call per piece; None when a piece has a
    non-ASCII byte, numpy raises or warns (as it does on a '#'), or the
    values are not dim**order finite numbers.  A blank piece is skipped:
    numpy reads it as -1."""
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


def _parse_dense(lines, order, dim):
    expected = dim**order
    values = []
    for lineno, body in lines:
        for tok in body.split():
            try:
                value = float(tok)
            except ValueError:
                raise TensorFileError("not a number: %r" % tok, lineno) from None
            if not isfinite(value):
                raise TensorFileError("entries must be finite, got %r" % tok, lineno)
            values.append(value)
        if len(values) > expected:
            raise TensorFileError(
                "too many entries: expected %d for order %d, dim %d" % (expected, order, dim),
                lineno,
            )
    if len(values) != expected:
        raise TensorFileError(
            "dense payload has %d entries, expected %d" % (len(values), expected)
        )
    return Tensor(np.asarray(values).reshape((dim,) * order))


def _parse_coo(lines, order, dim):
    try:
        data = np.zeros((dim,) * order)
    except (ValueError, MemoryError) as exc:
        raise TensorFileError("cannot allocate order %d, dim %d: %s" % (order, dim, exc)) from None
    seen = set()
    for lineno, body in lines:
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
        try:
            value = float(toks[order])
        except ValueError:
            raise TensorFileError("not a number: %r" % toks[order], lineno) from None
        if not isfinite(value):
            raise TensorFileError("entries must be finite, got %r" % toks[order], lineno)
        data[tuple(i - 1 for i in idx)] = value
    return Tensor(data)


def _load_plain_dense(fh):
    """The data array of a dense file opened in binary mode, its payload read
    16 KiB and the rest of a line at a time; None when the file needs the
    text path: a header not complete in the first block, a coo file, or a
    payload _bulk_dense declines."""
    block = fh.read(_READ_SIZE)
    if len(block) == _READ_SIZE:
        block = block[: max(block.rfind(b"\n"), block.rfind(b"\r")) + 1]
    try:
        text = block.decode("utf-8")
        order, dim, fmt, _, head_end = _header(text)
    except (UnicodeDecodeError, TensorFileError):
        return None
    if fmt != "dense":
        return None
    fh.seek(len(text[:head_end].encode("utf-8")))
    return _bulk_dense(iter(lambda: fh.read(_READ_SIZE) + fh.readline(), b""), order, dim)


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
        return Tensor(values)
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
