"""Dense NCHW tensors: deterministic initialization and blob I/O.

Arrays are plain numpy ndarrays in (batch, channel, row, column) row-major
layout, float32 on training paths and float64 when callers need extra
precision (e.g. finite-difference checks). Nothing here mutates its inputs,
so concurrent reads of shared tensors are safe.
"""

from __future__ import annotations

import struct

import numpy as np

REAL = np.float32

# Flat indices must fit a signed 64-bit int.
_MAX_ELEMS = 2**63 - 1

_BLOB_HEADER = struct.Struct("<4q")


def he_normal(shape: tuple[int, ...], fan_in: int, seed: int = 0,
              dtype=REAL) -> np.ndarray:
    """Seeded He-normal tensor: zero-mean Gaussian with variance 2/fan_in.

    Deterministic: (shape, fan_in, seed) fully determine the data. Raises
    ValueError on negative dimensions, flat-index overflow or a non-positive
    fan_in.
    """
    shape = tuple(int(d) for d in shape)
    if any(d < 0 for d in shape):
        raise ValueError(f"negative dimension in shape {shape}")
    n = 1
    for d in shape:
        n *= d
        if n > _MAX_ELEMS:
            raise ValueError(f"shape {shape} overflows the flat index space")
    if fan_in <= 0:
        raise ValueError("he_normal requires a positive fan_in")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


def blob_dump(arr: np.ndarray) -> bytes:
    """Serialize to the raw blob format: 4 little-endian int64 dims + float32 data.

    Arrays of rank < 4 are left-padded with unit dimensions.
    """
    if arr.ndim > 4:
        raise ValueError(f"blob format holds rank<=4 tensors, got rank {arr.ndim}")
    shape4 = (1,) * (4 - arr.ndim) + arr.shape
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return _BLOB_HEADER.pack(*shape4) + payload


def blob_load(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Read one blob from `buf` at `offset`; returns (rank-4 float32 array, next offset)."""
    end = offset + _BLOB_HEADER.size
    if end > len(buf):
        raise ValueError("truncated blob header")
    shape4 = _BLOB_HEADER.unpack_from(buf, offset)
    if any(d < 0 for d in shape4):
        raise ValueError(f"corrupt blob header: shape {shape4}")
    count = int(np.prod(shape4))
    nbytes = 4 * count
    if end + nbytes > len(buf):
        raise ValueError(f"blob payload of {nbytes} bytes exceeds buffer")
    arr = np.frombuffer(buf, dtype="<f4", count=count, offset=end).reshape(shape4)
    return arr.astype(np.float32), end + nbytes

