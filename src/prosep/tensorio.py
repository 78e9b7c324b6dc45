"""Binary tensor files: magic, dimension header, float64 payload.

Layout: 8-byte magic ``PROSEP01``, uint32 LE dimension count, one uint64
LE per dimension, then the row-major float64 LE payload.  Writes go
through a temporary file and an atomic rename.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import TensorFormatError

__all__ = ["MAGIC", "write_tensor", "read_tensor"]

MAGIC = b"PROSEP01"


def write_tensor(path, array) -> None:
    """Write an array as a tensor file (atomically)."""
    array = np.asarray(array, dtype="<f8", order="C")  # keeps a 0-d array 0-d
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", array.ndim))
        for dim in array.shape:
            f.write(struct.pack("<Q", dim))
        array.tofile(f)
    os.replace(tmp, path)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, validating magic and payload length."""
    with open(os.fspath(path), "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}")
        raw = f.read(4)
        if len(raw) != 4:
            raise TensorFormatError("truncated header")
        (ndims,) = struct.unpack("<I", raw)
        dims = []
        for _ in range(ndims):
            raw = f.read(8)
            if len(raw) != 8:
                raise TensorFormatError("truncated dimension list")
            dims.append(struct.unpack("<Q", raw)[0])
        payload = os.fstat(f.fileno()).st_size - f.tell()
        expected = 8 * math.prod(dims)  # Python integers: no overflow on huge headers
        if payload != expected:
            raise TensorFormatError(
                f"payload length {payload} != 8 * prod(dims) = {expected}"
            )
        # read straight into the result: no second copy of the payload
        arr = np.fromfile(f, dtype="<f8", count=expected // 8)
    try:
        return arr.astype(np.float64, copy=False).reshape(dims)
    except ValueError as e:  # a zero-size shape beyond numpy's dimension limits
        raise TensorFormatError(f"dimensions {tuple(dims)}: {e}")
