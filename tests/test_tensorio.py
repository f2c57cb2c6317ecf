import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snlblock.tensor import ConfigError
from snlblock.tensorio import read_tensor, write_tensor


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 3, 4), (2, 2, 2, 2)])
def test_round_trip_bit_identical(tmp_path, dtype, shape):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(shape).astype(dtype)
    path = tmp_path / "t.snlt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == dtype
    assert back.shape == shape
    assert np.array_equal(back.view(np.uint8) if False else back, arr)
    assert back.tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    path = tmp_path / "t.snlt"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"SNLT"
    assert raw[4] == 0  # single precision
    assert raw[5] == 2  # rank
    assert int.from_bytes(raw[6:10], "little") == 1
    assert int.from_bytes(raw[10:14], "little") == 2


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.snlt"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ConfigError):
        read_tensor(path)


def test_truncated(tmp_path):
    arr = np.zeros((4, 4), dtype=np.float64)
    path = tmp_path / "t.snlt"
    write_tensor(path, arr)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError):
        read_tensor(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(ConfigError):
        write_tensor(tmp_path / "t.snlt", np.zeros(3, dtype=np.int32))


def test_overflowing_header_rejected(tmp_path):
    # 2^31 * 2^31 * 4 wraps to 0 in int64; the true size is far past the file
    path = tmp_path / "big.snlt"
    path.write_bytes(b"SNLT" + bytes([0, 3])
                     + struct.pack("<3I", 2**31, 2**31, 4) + bytes(16))
    with pytest.raises(ConfigError, match="truncated"):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.snlt"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ConfigError, match="trailing"):
        read_tensor(path)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arr=hnp.arrays(st.sampled_from([np.float32, np.float64]),
                      hnp.array_shapes(min_dims=1, max_dims=4, max_side=5)))
def test_round_trip_property(tmp_path, arr):
    path = tmp_path / "p.snlt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.integers(0, 255), rank=st.integers(0, 255),
       dims=st.lists(st.integers(0, 2**32 - 1), max_size=5),
       payload=st.binary(max_size=64))
@example(flag=0, rank=3, dims=[], payload=b"")  # header ends inside the extents
def test_fuzzed_header_raises_only_config_error(tmp_path, flag, rank, dims, payload):
    path = tmp_path / "f.snlt"
    path.write_bytes(b"SNLT" + bytes([flag, rank])
                     + struct.pack(f"<{len(dims)}I", *dims) + payload)
    try:
        arr = read_tensor(path)
    except ConfigError:
        return
    # accepted only when the header describes exactly the bytes that follow
    assert arr.ndim == rank and arr.nbytes == len(path.read_bytes()) - 6 - 4 * rank
