"""The file formats: QTSR tensor files, blob entries and JSON documents.

QTSR (datasets, labels, integer traces), all little-endian:
    magic "QTSR" | u32 version=1 | u8 dtype | u8 rank | rank*u64 dims | data
dtype codes: 0=float32, 1=int8, 2=uint8, 3=int32. Data is row-major.

A blob entry is an array at the byte ``{"offset", "len", "dims"}`` that a
JSON document records, in ``weights.bin`` or ``qweights.bin``. Every JSON
loader reads through :func:`read_json`, types values with :func:`json_array`
and decodes inside :func:`located`, so a bad file ends in one line naming
the file, node or tensor. This module imports nothing from chanq.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"QTSR"
VERSION = 1

_CODE_DTYPES = dict(enumerate(map(np.dtype, ("<f4", "i1", "u1", "<i4"))))
_DTYPE_CODES = {dtype: code for code, dtype in _CODE_DTYPES.items()}


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


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def append_array(blob: bytearray, arr: np.ndarray) -> dict:
    """Append ``arr``'s bytes to ``blob``; returns its entry."""
    ref = {"offset": len(blob), "len": arr.nbytes, "dims": list(arr.shape)}
    blob.extend(np.ascontiguousarray(arr).tobytes())
    return ref


def read_array(blob: bytes, ref: dict, dtype, what: str) -> np.ndarray:
    """A copy of the ``dtype`` array at the entry ``ref`` of ``blob``;
    TensorFileError naming ``what`` unless offset, len and each dim are
    non-negative integers (no booleans), len is the element count times
    the itemsize, and the bytes lie inside the blob."""
    dtype = np.dtype(dtype)
    offset, length, dims = ref["offset"], ref["len"], ref["dims"]
    for key, value in (("offset", offset), ("len", length)):
        if not _is_int(value) or value < 0:
            raise TensorFileError(f"{what}: {key} {value!r} is not a non-negative integer")
    if not isinstance(dims, list) or not all(_is_int(d) and d >= 0 for d in dims):
        raise TensorFileError(f"{what}: dims {dims!r} is not a list of non-negative integers")
    n = math.prod(dims)  # a Python int: garbled dims cannot wrap
    if length != n * dtype.itemsize or offset + length > len(blob):
        raise TensorFileError(f"{what}: {length} bytes at offset {offset} do not hold "
                              f"{n} {dtype.name} values in a {len(blob)}-byte blob")
    return np.frombuffer(blob, dtype, count=n, offset=offset).reshape(dims).copy()


_JSON_KINDS = {np.int64: ("integers", (int,)), bool: ("booleans", (bool,)),
               str: ("strings", (str,)), np.float64: ("numbers or null", (int, float, type(None)))}


def json_array(value, dtype, name: str, ndim: int | None = None) -> np.ndarray:
    """A JSON value or nested list as an array of ``dtype`` (null is a float NaN, a
    bool no number); ValueError naming ``name`` for another kind or rank (``ndim``: 0 or 1)."""
    arr = np.asarray(value, dtype=object)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {('one value', 'a flat list')[ndim]}, got {value!r}")
    kind, types = _JSON_KINDS[dtype]
    for v in arr.flat:
        if type(v) not in types:
            raise ValueError(f"{name} must hold {kind}, got {v!r}")
    return arr.astype(dtype)


def read_json(path, error):
    """The JSON document at ``path``; ``error`` naming the file if it does not parse."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:  # RecursionError: arrays nested too deep
        raise error(f"cannot parse {path}: {e}") from None


def write_json(path, doc, indent: int = 1) -> None:
    Path(path).write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


@contextmanager
def located(error, where: str):
    """Raise ``error`` for a bad field decoded in the block: ``{where}:
    missing key ...`` or ``{where}: malformed value (...)``; a
    TensorFileError, which names its entry, keeps its message."""
    try:
        yield
    except error:
        raise
    except TensorFileError as e:
        raise error(str(e)) from None
    except KeyError as e:
        raise error(f"{where}: missing key {e.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError, OverflowError) as e:
        raise error(f"{where}: malformed value ({e})") from None
