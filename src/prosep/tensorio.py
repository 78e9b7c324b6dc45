"""Binary tensor files: magic, dimension header, float64 payload.

Layout: 8-byte magic ``PROSEP01``, uint32 LE dimension count, one uint64
LE per dimension, then the row-major float64 LE payload.

A file is read or written whole (``read_tensor``, ``write_tensor``) or
in chunks along its first axis (``read_chunks``, ``write_chunks``), so a
P x W x W movie passes through a file a few frames at a time.  The
whole-array functions are the one-chunk case of the chunked ones, so
both give the same bytes.  A reader checks the header, and the payload
length against it, once, before it reads any payload (``tensor_shape``
checks only that); each chunk then holds as many whole rows as fit in
``CHUNK_VALUES`` values, and at least one.  Every ``TensorFormatError``
of a damaged file names the file.  A writer writes the header
and then the chunks, in C order, to ``<path>.tmp``, checks that they
hold exactly the values of the shape, and renames the file to ``path``
(``atomic_write``).  If any step raises (a full disk, or a chunk source
that fails midway) the temporary file is removed and ``path`` is left
as it was.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import TensorFormatError

__all__ = ["MAGIC", "CHUNK_VALUES", "atomic_write", "write_tensor", "write_chunks",
           "read_tensor", "read_chunks", "tensor_shape"]

MAGIC = b"PROSEP01"
# values per chunk (128 KiB of float64): four 64 x 64 frames, or one frame
# of any wider grid
CHUNK_VALUES = 1 << 14


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """A file opened for writing at ``<path>.tmp`` and renamed to ``path`` when the block ends.

    If the block raises, the temporary file is removed and ``path`` is
    left as it was.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_tensor(path, array) -> None:
    """Write an array as a tensor file (atomically)."""
    array = np.asarray(array, dtype="<f8", order="C")  # keeps a 0-d array 0-d
    write_chunks(path, array.shape, (array,))


def write_chunks(path, shape, chunks) -> None:
    """Write the tensor of ``shape`` whose C-order values ``chunks`` yields in turn (atomically).

    Each chunk is an array of any shape; together they must hold exactly
    prod(shape) values, or a ``ValueError`` is raised and nothing is
    written.
    """
    expected, written = math.prod(shape), 0
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(shape)))
        for dim in shape:
            f.write(struct.pack("<Q", dim))
        for chunk in chunks:
            chunk = np.asarray(chunk, dtype="<f8")
            written += chunk.size
            if written > expected:
                break
            chunk.tofile(f)
        if written != expected:
            raise ValueError(f"{os.fspath(path)}: chunks hold {'over ' * (written > expected)}"
                             f"{written} values, shape {tuple(shape)} has {expected}")


def _format_error(f, message: str) -> TensorFormatError:
    """The error of a damaged file ``f``, opened by its path: the message after the path."""
    return TensorFormatError(f"{f.name}: {message}")


def _read_header(f) -> tuple:
    """The shape in the header of the open file ``f``, checked against its payload length."""
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise _format_error(f, f"bad magic {magic!r}")
    raw = f.read(4)
    if len(raw) != 4:
        raise _format_error(f, "truncated header")
    (ndims,) = struct.unpack("<I", raw)
    dims = []
    for _ in range(ndims):
        raw = f.read(8)
        if len(raw) != 8:
            raise _format_error(f, "truncated dimension list")
        dims.append(struct.unpack("<Q", raw)[0])
    payload = os.fstat(f.fileno()).st_size - f.tell()
    expected = 8 * math.prod(dims)  # Python integers: no overflow on huge headers
    if payload != expected:
        raise _format_error(f, f"payload length {payload} != 8 * prod(dims) = {expected}")
    return tuple(dims)


def tensor_shape(path) -> tuple:
    """The shape of a tensor file from its header; the payload length is checked, not read."""
    with open(os.fspath(path), "rb") as f:
        return _read_header(f)


def _chunks(f, shape: tuple, values):
    """The payload of ``f`` after its header, as whole rows of about ``values`` values each.

    A 0-d or zero-size tensor is one chunk of its shape, and so is any
    tensor when ``values`` is None.
    """
    if values is None or not shape or math.prod(shape) == 0:
        parts = [shape]
    else:
        step = max(1, values // math.prod(shape[1:]))
        parts = [(min(step, shape[0] - p), *shape[1:]) for p in range(0, shape[0], step)]
    for part in parts:
        # read straight into the chunk: no second copy of the payload
        chunk = np.fromfile(f, dtype="<f8", count=math.prod(part))
        try:
            chunk = chunk.astype(np.float64, copy=False).reshape(part)
        except ValueError as e:  # a zero-size shape beyond numpy's dimension limits
            raise _format_error(f, f"dimensions {shape}: {e}") from None
        yield chunk


def read_chunks(path):
    """The tensor in a file as C-order chunks along its first axis (a generator).

    Each chunk holds as many whole rows (index ranges of the first axis)
    as fit in ``CHUNK_VALUES`` values, and at least one; the last chunk
    holds what is left.  The header and the payload length are checked
    when the generator starts, before any payload is read.
    """
    with open(os.fspath(path), "rb") as f:
        yield from _chunks(f, _read_header(f), CHUNK_VALUES)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, validating magic and payload length."""
    with open(os.fspath(path), "rb") as f:
        return next(_chunks(f, _read_header(f), None))
