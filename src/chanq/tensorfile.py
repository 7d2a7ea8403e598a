"""The file formats: QTSR tensor files, blob entries and JSON documents.

QTSR (datasets, labels, integer traces), all little-endian:
    magic "QTSR" | u32 version=1 | u8 dtype | u8 rank | rank*u64 dims | data
dtype codes: 0=float32, 1=int8, 2=uint8, 3=int32. Data is row-major.

A blob entry is an array at the byte ``{"offset", "len", "dims"}`` that a
JSON document records, in ``weights.bin`` or ``qweights.bin``. Every JSON
loader reads an object through :func:`read_json`, types each object and value
with :func:`json_array` and decodes inside :func:`located`, so a bad file ends
in one line naming the file, node or tensor. This module imports nothing from chanq.
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


def read_array(blob: bytes, ref, dtype, what: str) -> np.ndarray:
    """A copy of the ``dtype`` array at the entry ``ref`` of ``blob``; ValueError naming
    ``what`` unless ``ref`` is an object of non-negative integers (``offset``, ``len`` and the
    list ``dims``), len is the element count times the itemsize and the bytes lie in the blob."""
    dtype = np.dtype(dtype)
    ref = json_array(ref, dict, what, 0).item()
    offset, length, dims = (json_array(ref[key], np.int64, f"{what} {key}", ndim).tolist()
                            for key, ndim in (("offset", 0), ("len", 0), ("dims", 1)))
    if min(offset, length, *dims) < 0:
        raise TensorFileError(f"{what}: offset {offset}, len {length} and dims {dims} must be >= 0")
    n = math.prod(dims)  # a Python int: garbled dims cannot wrap
    if length != n * dtype.itemsize or offset + length > len(blob):
        raise TensorFileError(f"{what}: {length} bytes at offset {offset} do not hold "
                              f"{n} {dtype.name} values in a {len(blob)}-byte blob")
    return np.frombuffer(blob, dtype, count=n, offset=offset).reshape(dims).copy()


_JSON_KINDS = {np.int64: ("integers", (int,)), bool: ("booleans", (bool,)),
               str: ("strings", (str,)), np.float64: ("numbers or null", (int, float, type(None))),
               dict: ("objects", (dict,))}
_F64_MAX = int(np.finfo(np.float64).max)
_INT_RANGES = {np.int64: range(-2**63, 2**63), np.float64: range(-_F64_MAX, _F64_MAX + 1)}


def quoted(value) -> str:  # a JSON value as a refusal quotes it: containers by their length
    kind = {list: "a list", dict: "an object"}.get(type(value))
    return f"{kind} of length {len(value)}" if kind else repr(value)


def json_array(value, dtype, name: str, ndim: int | None = None) -> np.ndarray:
    """A JSON value or nested list as an array of ``dtype`` (null is a float NaN, a bool no number,
    ``dict`` an object); ValueError naming ``name`` for another kind or rank (``ndim``: 0 or 1)."""
    kind, types = _JSON_KINDS[dtype]
    if dtype is dict and ndim == 0 and type(value) is not dict:
        raise ValueError(f"{name} must be an object, got {quoted(value)}")
    arr = np.asarray(value, dtype=object)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {('one value', 'a flat list')[ndim]}, got {quoted(value)}")
    for v in arr.flat:
        if type(v) not in types:
            raise ValueError(f"{name} must hold {kind}, got {quoted(v)}")
        if type(v) is int and v not in _INT_RANGES[dtype]:
            raise ValueError(f"{name} holds {v}, past {np.dtype(dtype).name}")
    return arr.astype(dtype)


def read_json(path, error) -> dict:
    """The JSON object at ``path``; ``error`` naming the file if it holds another value."""
    try:
        return json_array(json.loads(Path(path).read_text()), dict, "document", 0).item()
    except (OSError, ValueError, RecursionError) as e:  # RecursionError: arrays nested too deep
        raise error(f"cannot parse {path}: {e}") from None


def write_json(path, doc, indent: int = 1) -> None:
    Path(path).write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


@contextmanager
def located(error, where: str):
    """Raise ``error`` for a bad field decoded in the block: ``{where}: missing key ...``
    or, for a ValueError such as :func:`json_array`'s, ``{where}: malformed value (...)``;
    a TensorFileError, which names its entry, keeps its message."""
    try:
        yield
    except error:
        raise
    except TensorFileError as e:
        raise error(str(e)) from None
    except KeyError as e:
        raise error(f"{where}: missing key {e.args[0]!r}") from None
    except ValueError as e:
        raise error(f"{where}: malformed value ({e})") from None
