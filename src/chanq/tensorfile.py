"""Binary tensor file format (QTSR) for datasets and golden outputs.

Layout, all little-endian:
    magic "QTSR" | u32 version=1 | u8 dtype | u8 rank | rank*u64 dims | data

dtype codes: 0=float32, 1=int8, 2=uint8, 3=int32. Data is row-major.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"QTSR"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("i1"): 1,
    np.dtype("u1"): 2,
    np.dtype("<i4"): 3,
}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("i1"), 2: np.dtype("u1"), 3: np.dtype("<i4")}


class TensorFileError(ValueError):
    """Malformed or unsupported tensor file."""


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    dtype = arr.dtype.newbyteorder("<")
    if dtype not in _DTYPE_CODES:
        raise TensorFileError(f"unsupported dtype {arr.dtype}; use f32/i8/u8/i32")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IBB", VERSION, _DTYPE_CODES[dtype], arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.astype(dtype, copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 10 or len(blob) < 10 + 8 * blob[9]:  # byte 9 is the rank
        raise TensorFileError(f"{path}: truncated header")
    version, dtype_code, rank = struct.unpack_from("<IBB", blob, 4)
    if version != VERSION:
        raise TensorFileError(f"{path}: unsupported version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise TensorFileError(f"{path}: unknown dtype code {dtype_code}")
    dims = struct.unpack_from(f"<{rank}Q", blob, 10)
    dtype = _CODE_DTYPES[dtype_code]
    # garbled dims must not reach numpy, whose int64 product can wrap
    if math.prod(dims) * dtype.itemsize > len(blob) - 10 - 8 * rank:
        raise TensorFileError(f"{path}: truncated data section")
    return np.frombuffer(blob, dtype=dtype, count=math.prod(dims),
                         offset=10 + 8 * rank).reshape(dims).copy()
