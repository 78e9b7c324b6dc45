"""Properties of the tensor file format: bit-exact round trips, and
``TensorFormatError`` as the only failure of a damaged file."""

import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from prosep import tensorio
from prosep.cli import _write_text_atomic
from prosep.errors import TensorFormatError
from prosep.tensorio import (
    CHUNK_VALUES,
    MAGIC,
    read_chunks,
    read_tensor,
    tensor_shape,
    write_chunks,
    write_tensor,
)

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


# ------------------------------------------------------------- chunked files

def test_chunked_writer_and_reader_match_the_whole_array_functions(tmp_path, rng):
    """P = 37 frames of 24 x 24 pass in chunks of 28 and 9 frames, byte for byte."""
    movie = rng.standard_normal((37, 24, 24))
    whole, chunked = tmp_path / "whole.tensor", tmp_path / "chunked.tensor"
    write_tensor(whole, movie)
    write_chunks(chunked, movie.shape, (movie[p:p + 5] for p in range(0, 37, 5)))
    assert chunked.read_bytes() == whole.read_bytes()
    chunks = list(read_chunks(whole))
    assert [len(c) for c in chunks] == [CHUNK_VALUES // 576, 37 - CHUNK_VALUES // 576]
    assert np.concatenate(chunks).tobytes() == movie.tobytes()
    assert tensor_shape(whole) == (37, 24, 24)


@pytest.mark.parametrize("values, lengths", [(24 * 24 * 10, [10, 10, 10, 7]),
                                             (100, [1] * 37)])  # one row at least
def test_chunks_hold_whole_rows_within_the_value_budget(tmp_path, rng, monkeypatch, values,
                                                        lengths):
    path = tmp_path / "t.tensor"
    write_tensor(path, rng.standard_normal((37, 24, 24)))
    monkeypatch.setattr(tensorio, "CHUNK_VALUES", values)
    assert [len(c) for c in read_chunks(path)] == lengths


@pytest.mark.parametrize("arr, shapes", [
    (np.float64(2.5), [()]),  # a 0-d tensor is one chunk
    (np.arange(5.0), [(2,), (2,), (1,)]),
    (np.zeros((0, 3)), [(0, 3)]),  # so is an empty one
    (np.zeros((3, 0)), [(3, 0)]),
])
def test_chunks_of_0d_1d_and_empty_tensors(tmp_path, monkeypatch, arr, shapes):
    """0-d and 1-d arrays are written as before, and read back in chunks of two values."""
    path = tmp_path / "t.tensor"
    write_tensor(path, arr)
    raw = path.read_bytes()
    write_chunks(path, np.shape(arr), [arr])
    assert path.read_bytes() == raw
    monkeypatch.setattr(tensorio, "CHUNK_VALUES", 2)
    chunks = list(read_chunks(path))
    assert [c.shape for c in chunks] == shapes
    assert np.concatenate([c.ravel() for c in chunks]).tobytes() == np.asarray(arr).tobytes()
    assert read_tensor(path).shape == np.shape(arr)


def test_chunked_writer_rejects_the_wrong_number_of_values(tmp_path):
    path = tmp_path / "t.tensor"
    for chunks in ([np.zeros(5)], [np.zeros(6), np.zeros(2)]):
        with pytest.raises(ValueError, match="values, shape"):
            write_chunks(path, (2, 3), chunks)
        assert not path.exists() and not (tmp_path / "t.tensor.tmp").exists()


def test_chunked_reader_checks_the_header_before_any_payload(tmp_path):
    path = tmp_path / "t.tensor"
    write_tensor(path, np.ones((4, 3)))
    path.write_bytes(path.read_bytes()[:-8])
    chunks = read_chunks(path)
    with pytest.raises(TensorFormatError, match="payload length"):
        next(chunks)
    with pytest.raises(TensorFormatError, match="payload length"):
        tensor_shape(path)


# damaged copies of the file of np.ones((4, 3)), and whether its header still reads
DAMAGE = {
    "bad magic": (lambda raw: b"PROSEP02" + raw[8:], False),
    "truncated header": (lambda raw: raw[:10], False),
    "truncated dimension list": (lambda raw: raw[:20], False),
    "payload length": (lambda raw: raw[:-8], False),
    "dimensions": (lambda raw: MAGIC + struct.pack("<IQQ", 2, 0, 2**62), True),
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_every_format_error_names_the_file(tmp_path, damage):
    """Each reader's TensorFormatError starts with the path, then says what is wrong."""
    path = tmp_path / "t.tensor"
    write_tensor(path, np.ones((4, 3)))
    damaged, header_reads = DAMAGE[damage]
    path.write_bytes(damaged(path.read_bytes()))
    readers = [read_tensor, lambda p: list(read_chunks(p))]
    if not header_reads:
        readers.append(tensor_shape)
    for read in readers:
        with pytest.raises(TensorFormatError, match=f"^{re.escape(str(path))}: {damage}"):
            read(path)


class _FullDisk:
    """A file whose every write fails, as on a full disk."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _write_fails(path):
    return _FullDisk(open(path, "wb"))


@pytest.mark.parametrize("writer", ["write_tensor", "write_text", "failing_source"])
def test_a_failed_write_leaves_no_temporary_file_and_the_old_file(tmp_path, monkeypatch,
                                                                   writer):
    """A write that raises removes ``<path>.tmp`` and keeps what was at ``<path>``."""
    path = tmp_path / "out"
    path.write_bytes(b"old contents")

    def source():
        yield np.zeros((2, 3))
        raise RuntimeError("the source failed")

    if writer == "failing_source":
        with pytest.raises(RuntimeError, match="the source failed"):
            write_chunks(path, (4, 3), source())
    else:
        monkeypatch.setattr(tensorio, "open", lambda p, mode: _write_fails(p), raising=False)
        with pytest.raises(OSError, match="No space"):
            if writer == "write_tensor":
                write_tensor(path, np.ones(3))
            else:
                _write_text_atomic(path, "text\n")
    assert path.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
