"""Binary weights file: "LFWB" magic, named float32 arrays, little-endian.

Layout: 4-byte magic, u32 entry count, then per entry a u32 name length,
the UTF-8 name, u32 ndim, ndim u32 dims, and dim-product f32 values. Every
integer and float is little-endian. Names must be unique and the byte
length of the file is exactly determined by its headers; anything else is
a format error.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import NumericDomainError, WeightsFormatError
from .tensor import Tensor

MAGIC = b"LFWB"
_MAX_NDIM = 8


def serialize_weights(weights: dict[str, Tensor]) -> bytes:
    out = bytearray(MAGIC)
    out += struct.pack("<I", len(weights))
    for name, t in weights.items():
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<I", t.ndim)
        out += struct.pack(f"<{t.ndim}I", *t.shape)
        out += np.ascontiguousarray(t.array, dtype="<f4").tobytes()
    return bytes(out)


def atomic_write(path, data) -> None:
    """Write text or bytes so the target is never observed half-written."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_weights_file(path, weights: dict[str, Tensor]) -> None:
    """Serialize and atomically replace path."""
    atomic_write(path, serialize_weights(weights))


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WeightsFormatError(
                f"truncated weights file: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def deserialize_weights(data: bytes) -> dict[str, Tensor]:
    cur = _Cursor(data)
    if cur.take(4) != MAGIC:
        raise WeightsFormatError(f"bad magic, expected {MAGIC!r}")
    count = cur.u32()
    weights: dict[str, Tensor] = {}
    for _ in range(count):
        name_len = cur.u32()
        try:
            name = cur.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise WeightsFormatError(f"entry name is not UTF-8: {e}") from e
        if not name:
            raise WeightsFormatError("empty entry name")
        if name in weights:
            raise WeightsFormatError(f"duplicate entry name {name!r}")
        ndim = cur.u32()
        if not 1 <= ndim <= _MAX_NDIM:
            raise WeightsFormatError(f"entry {name!r} has ndim {ndim}")
        dims = struct.unpack(f"<{ndim}I", cur.take(4 * ndim))
        if any(d < 1 for d in dims):
            raise WeightsFormatError(f"entry {name!r} has zero-sized dim {dims}")
        n = 1
        for d in dims:
            n *= d
        raw = cur.take(4 * n)
        arr = np.frombuffer(raw, dtype="<f4", count=n).reshape(dims)
        try:
            weights[name] = Tensor(arr)
        except NumericDomainError as e:
            raise WeightsFormatError(f"entry {name!r}: {e}") from e
    if cur.pos != len(data):
        raise WeightsFormatError(f"{len(data) - cur.pos} trailing bytes after last entry")
    return weights


def read_weights_file(path) -> dict[str, Tensor]:
    with open(path, "rb") as f:
        return deserialize_weights(f.read())
