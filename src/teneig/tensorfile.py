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

Files move in bulk.  The writer formats a dense payload in blocks of
six-value lines with one ``%`` call each, and a coo payload with one ``%``
call (``"%.17g"`` is the routine behind ``format(v, ".17g")``, so the text is
the same as a per-value writer's).  The reader takes the three header lines
from a prefix of the text and parses the rest with one ``np.fromstring``
call, which creates no Python object per value.  It keeps
that result only if numpy raised nothing, warned nothing and returned exactly
dim**order finite values; a payload with a comment, a header region with a
line break other than ``\n`` or ``\r\n``, a coo file and every other outcome go
through the line-by-line loop, which calls ``float()`` on each token.  So
every token ``float()`` accepts is still accepted, every value is the one
``float()`` gives, and every error keeps its message and line number.
"""

from __future__ import annotations

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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _bulk_dense(text):
    """The dense tensor in text by one numpy parse, or None where the
    line-by-line loop must decide (a coo file, a comment in the payload, any
    error or doubt)."""
    heads = []
    pos = 0
    while len(heads) < 3:
        end = text.find("\n", pos) + 1
        if not end:
            return None
        body = text[pos:end].split("#", 1)[0].split()
        if body:
            heads.append(body)
        pos = end
    # Lines are numbered by str.splitlines, which also breaks at "\r",
    # "\x0b", "\x1c", "\u2028" ...; a header region with such a break has
    # its lines elsewhere than "\n" says.
    if len(text[:pos].splitlines()) != text.count("\n", 0, pos):
        return None
    if [h[0] for h in heads] != ["order", "dim", "format"] or any(len(h) != 2 for h in heads):
        return None
    try:
        order, dim = int(heads[0][1]), int(heads[1][1])
    except ValueError:
        return None
    if heads[2][1] != "dense" or order < 2 or dim < 1 or text.find("#", pos) >= 0:
        return None
    # numpy 1.x warns and returns the values read so far on unmatched text,
    # where numpy 2 raises.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(text[pos:], dtype=float, sep=" ")
        except (ValueError, Warning):
            return None
    if values.size != dim**order or not np.isfinite(values).all():
        return None
    return Tensor(values.reshape((dim,) * order))


def loads_tensor(text):
    """Parse a tensor from the text format."""
    bulk = _bulk_dense(text)
    if bulk is not None:
        return bulk
    lines = _meaningful_lines(text)
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
    if parts[1] == "dense":
        return _parse_dense(lines, order, dim)
    return _parse_coo(lines, order, dim)


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


def load_tensor(path):
    """Read a tensor file from disk; a file that is not UTF-8 text is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TensorFileError("not UTF-8 text (%s)" % exc) from None
        return loads_tensor(text)


# One line of the dense payload, and the lines one % call formats at most.
_DENSE_ROW = "%.17g %.17g %.17g %.17g %.17g %.17g\n"
_DENSE_BLOCK_ROWS = 512


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


def dumps_tensor(T, fmt="dense"):
    """Serialize a tensor to the text format."""
    if fmt not in ("dense", "coo"):
        raise ValueError("fmt must be 'dense' or 'coo'")
    head = "order %d\ndim %d\nformat %s\n" % (T.order, T.dim, fmt)
    if fmt == "dense":
        return "".join([head, *_dense_payload(T.entries)])
    return head + _coo_payload(T.data)


def save_tensor(path, T, fmt="dense"):
    """Write a tensor file; a later load reproduces the tensor exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tensor(T, fmt=fmt))
