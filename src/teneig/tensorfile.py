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
"""

from __future__ import annotations

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


def loads_tensor(text):
    """Parse a tensor from the text format."""
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


def dumps_tensor(T, fmt="dense"):
    """Serialize a tensor to the text format."""
    if fmt not in ("dense", "coo"):
        raise ValueError("fmt must be 'dense' or 'coo'")
    out = ["order %d" % T.order, "dim %d" % T.dim, "format %s" % fmt]
    if fmt == "dense":
        flat = T.entries
        for pos in range(0, flat.size, 6):
            out.append(" ".join(format(v, ".17g") for v in flat[pos : pos + 6]))
    else:
        for idx in np.argwhere(T.data != 0):
            value = T.data[tuple(idx)]
            out.append(
                " ".join(str(int(i) + 1) for i in idx) + " " + format(value, ".17g")
            )
    return "\n".join(out) + "\n"


def save_tensor(path, T, fmt="dense"):
    """Write a tensor file; a later load reproduces the tensor exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tensor(T, fmt=fmt))
