"""Binary tensor file format used by the CLI.

Layout: magic "SNLT", u8 precision flag (0=single, 1=double), u8 rank,
rank x u32 little-endian extents, then the raw little-endian values in
row-major order.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import SINGLE, DOUBLE, ConfigError

MAGIC = b"SNLT"

_DTYPE_BY_FLAG = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype == SINGLE:
        flag = 0
    elif arr.dtype == DOUBLE:
        flag = 1
    else:
        raise ConfigError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    if not 1 <= arr.ndim <= 4:
        raise ConfigError(f"unsupported rank {arr.ndim}; expected 1-4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", flag, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype(_DTYPE_BY_FLAG[flag], copy=False).tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a .snlt file; any malformed content raises ConfigError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(6)
        if len(head) != 6 or head[:4] != MAGIC:
            raise ConfigError(f"{path}: bad magic {head[:4]!r}")
        flag, rank = head[4], head[5]
        if flag not in _DTYPE_BY_FLAG:
            raise ConfigError(f"{path}: bad precision flag {flag}")
        if not 1 <= rank <= 4:
            raise ConfigError(f"{path}: bad rank {rank}")
        raw_dims = fh.read(4 * rank)
        if len(raw_dims) != 4 * rank:
            raise ConfigError(f"{path}: truncated header")
        dims = struct.unpack(f"<{rank}I", raw_dims)
        dtype = _DTYPE_BY_FLAG[flag]
        # Python ints: a product of u32 extents can overflow int64
        nbytes = math.prod(dims) * dtype.itemsize
        payload = size - fh.tell()
        if payload != nbytes:
            what = "truncated payload" if payload < nbytes else "trailing bytes"
            raise ConfigError(f"{path}: {what}: {payload} bytes, header says {nbytes}")
        data = np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(dims)
    # native byte order copy so downstream code is unaffected by the file
    return data.astype(dtype.newbyteorder("="), copy=True)
