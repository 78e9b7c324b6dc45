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
    array = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", array.ndim))
        for dim in array.shape:
            f.write(struct.pack("<Q", dim))
        f.write(array.astype("<f8", copy=False).tobytes())
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
        payload = f.read()
    expected = 8 * math.prod(dims)  # Python integers: no overflow on huge headers
    if len(payload) != expected:
        raise TensorFormatError(
            f"payload length {len(payload)} != 8 * prod(dims) = {expected}"
        )
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return arr.reshape(dims)
