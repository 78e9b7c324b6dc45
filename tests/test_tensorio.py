"""Properties of the tensor file format: bit-exact round trips, and
``TensorFormatError`` as the only failure of a damaged file."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from prosep.errors import TensorFormatError
from prosep.tensorio import MAGIC, read_tensor, write_tensor

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# every float64 bit pattern (NaNs with any payload and sign, infinities,
# subnormals, -0.0), on shapes with 0 to 3 dimensions of 0 to 4 entries
float_bits = arrays(np.uint64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                    elements=st.integers(0, 2**64 - 1)).map(lambda a: a.view(np.float64))


@pytest.fixture(scope="module")
def tensor_path(tmp_path_factory):
    """One file that each example overwrites."""
    return tmp_path_factory.mktemp("tensor") / "t.tensor"


def tensor_bytes(path, arr):
    write_tensor(path, arr)
    return path.read_bytes()


def read_or_format_error(path):
    """The array read from ``path``, or None when it raises TensorFormatError."""
    try:
        return read_tensor(path)
    except TensorFormatError:
        return None


@PROPERTY
@given(float_bits)
def test_round_trip_is_bit_exact(tensor_path, arr):
    write_tensor(tensor_path, arr)
    back = read_tensor(tensor_path)
    assert back.dtype == np.float64 and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@PROPERTY
@given(float_bits, st.data())
def test_truncated_file_raises_tensor_format_error(tensor_path, arr, data):
    raw = tensor_bytes(tensor_path, arr)
    tensor_path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(TensorFormatError):
        read_tensor(tensor_path)


@PROPERTY
@given(float_bits, st.data())
def test_corrupted_file_reads_or_raises_tensor_format_error(tensor_path, arr, data):
    """Overwritten header or payload bytes, or bytes appended."""
    raw = bytearray(tensor_bytes(tensor_path, arr))
    start = data.draw(st.integers(0, len(raw)))
    raw[start:start + 8] = data.draw(st.binary(min_size=1, max_size=8))
    tensor_path.write_bytes(bytes(raw))
    back = read_or_format_error(tensor_path)
    if back is not None:
        assert back.dtype == np.float64 and 8 * back.size == len(raw) - 12 - 8 * back.ndim


# header dimensions: small ones, numpy's and the format's limits, and any uint64
dimensions = (st.integers(0, 4) | st.sampled_from([2**31, 2**62, 2**63, 2**64 - 1])
              | st.integers(0, 2**64 - 1))


@PROPERTY
@given(st.lists(dimensions, max_size=4), st.binary(max_size=40))
@example(dims=[0, 2**62], payload=b"")  # zero size, but beyond numpy's dimension limit
def test_any_header_reads_its_shape_or_raises_tensor_format_error(tensor_path, dims, payload):
    """Dimensions up to 2**64 - 1, zero among them or not, against any payload."""
    header = MAGIC + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    tensor_path.write_bytes(header + payload)
    back = read_or_format_error(tensor_path)
    if back is not None:
        assert back.shape == tuple(dims) and back.tobytes() == payload
