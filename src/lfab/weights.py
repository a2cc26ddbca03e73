"""Binary weights file: "LFWB" magic, named float32 arrays, little-endian.

Layout: 4-byte magic, u32 entry count, then per entry a u32 name length,
the UTF-8 name, u32 ndim, ndim u32 dims, and dim-product f32 values. Every
integer and float is little-endian. Names must be unique and the byte
length of the file is exactly determined by its headers; anything else is
a format error.

Files are streamed both ways: the reader reads each entry's values straight
into the array its Tensor keeps, and the writer writes each array's own
buffer, so neither ever holds a whole-file copy next to the model.
"""

from __future__ import annotations

import io
import math
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import WeightsFormatError
from .tensor import Tensor

MAGIC = b"LFWB"
_MAX_NDIM = 8


def _chunks(weights: dict[str, Tensor]) -> Iterator[bytes | memoryview]:
    """The file's bytes in order: headers, then each array's own buffer."""
    yield MAGIC + struct.pack("<I", len(weights))
    for name, t in weights.items():
        nb = name.encode("utf-8")
        yield struct.pack(f"<I{len(nb)}sI{t.ndim}I", len(nb), nb, t.ndim, *t.shape)
        yield memoryview(np.ascontiguousarray(t.array, dtype="<f4")).cast("B")


def serialize_weights(weights: dict[str, Tensor]) -> bytes:
    return b"".join(_chunks(weights))


def atomic_write(path, chunks: Iterable[bytes | memoryview]) -> None:
    """Write byte chunks so the target is never observed half-written."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_weights_file(path, weights: dict[str, Tensor]) -> None:
    """Stream the serialized weights to a temp file, then replace path."""
    atomic_write(path, _chunks(weights))


class _Reader:
    """Reads a stream of known size, checking each length before it reads."""

    def __init__(self, f, size: int):
        self.f = f
        self.size = size
        self.pos = 0

    def _claim(self, n: int) -> None:
        if n > self.size - self.pos:
            raise WeightsFormatError(
                f"truncated weights file: needed {n} bytes at offset {self.pos}, "
                f"have {self.size - self.pos}"
            )
        self.pos += n

    def _check_read(self, got: int, n: int) -> None:
        # the stream ended before its stated size (the file shrank)
        if got != n:
            raise WeightsFormatError(
                f"truncated weights file: needed {n} bytes at offset {self.pos - n}, "
                f"read {got}"
            )

    def take(self, n: int) -> bytes:
        self._claim(n)
        chunk = self.f.read(n)
        self._check_read(len(chunk), n)
        return chunk

    def take_array(self, dims: tuple[int, ...]) -> np.ndarray:
        arr_bytes = 4 * math.prod(dims)
        # claimed before allocating, so a corrupt header cannot ask for more
        # memory than the file holds
        self._claim(arr_bytes)
        arr = np.empty(dims, dtype="<f4")
        self._check_read(self.f.readinto(memoryview(arr).cast("B")), arr_bytes)
        return arr

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_weights(f, size: int) -> dict[str, Tensor]:
    """The one LFWB parser, over a binary stream holding size bytes."""
    cur = _Reader(f, size)
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
        arr = cur.take_array(dims)
        if not np.isfinite(arr).all():
            raise WeightsFormatError(f"entry {name!r}: tensor values must be finite")
        weights[name] = Tensor._wrap(arr)
    if cur.pos != size:
        raise WeightsFormatError(f"{size - cur.pos} trailing bytes after last entry")
    return weights


def deserialize_weights(data: bytes) -> dict[str, Tensor]:
    return _read_weights(io.BytesIO(data), len(data))


def read_weights_file(path) -> dict[str, Tensor]:
    with open(path, "rb") as f:
        return _read_weights(f, os.fstat(f.fileno()).st_size)
