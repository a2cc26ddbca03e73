"""Binary weights file: "LFWB" magic, named float32 arrays, little-endian.

Layout: 4-byte magic, u32 entry count, then per entry a u32 name length,
the UTF-8 name, u32 ndim, ndim u32 dims, and dim-product f32 values. Every
integer and float is little-endian. Names must be unique and the byte
length of the file is exactly determined by its headers; anything else is
a format error.

The reader maps the file read-only and parses it in one pass, in file
order: each length is claimed against the bytes left before it is read,
each entry's values are finite-checked a block at a time, and each entry's
Tensor is a view of the mapped pages, so loading copies no value. The
writer streams each array's own buffer. Neither holds a whole-file copy
next to the model.

The map lives as long as any Tensor read from it. Truncating or rewriting
the file in place meanwhile ends the process with SIGBUS when a page that
is gone is touched; replacing it by rename, as atomic_write does, leaves
the loaded Tensors intact.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import WeightsFormatError
from .tensor import TILE_BYTES, Tensor

MAGIC = b"LFWB"
_MAX_NDIM = 8


def _chunks(weights: dict[str, Tensor]) -> Iterator[bytes | memoryview]:
    """The file's bytes in order: headers, then each array's own buffer."""
    yield MAGIC + struct.pack("<I", len(weights))
    for name, t in weights.items():
        nb = name.encode("utf-8")
        yield struct.pack(f"<I{len(nb)}sI{t.ndim}I", len(nb), nb, t.ndim, *t.shape)
        yield memoryview(np.ascontiguousarray(t.array, dtype="<f4")).cast("B")


def atomic_write(path, chunks: Iterable[bytes | memoryview]) -> None:
    """Write byte chunks so the target is never observed half-written.

    An OSError names path, not the temporary file next to it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, os.fspath(path)) from e
        raise


def write_weights_file(path, weights: dict[str, Tensor]) -> None:
    """Stream the serialized weights to a temp file, then replace path."""
    atomic_write(path, _chunks(weights))


# Values are finite-checked one block of this many bytes at a time, so the
# check's mask is a quarter block whatever the entry's size.
_BLOCK = 4 * TILE_BYTES


class _Reader:
    """Parses a buffer, checking each length against the bytes left before
    it reads."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def claim(self, n: int) -> int:
        left = len(self.buf) - self.pos
        if n > left:
            raise WeightsFormatError(
                f"truncated weights file: needed {n} bytes at offset {self.pos}, "
                f"have {left}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        offset = self.claim(n)
        return self.buf[offset:offset + n]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _parse(buf) -> dict[str, Tensor]:
    """The one LFWB parser: every entry in file order, each a Tensor over a
    view of buf."""
    cur = _Reader(buf)
    if cur.take(4) != MAGIC:
        raise WeightsFormatError(f"bad magic, expected {MAGIC!r}")
    count = cur.u32()
    per = _BLOCK // 4  # values per finite-check block
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
        # claimed before any value is looked at, so a corrupt header cannot
        # reach past the end of the file
        size = math.prod(dims)
        values = np.frombuffer(buf, "<f4", size, cur.claim(4 * size))
        if not all(np.isfinite(values[v0:v0 + per]).all() for v0 in range(0, size, per)):
            raise WeightsFormatError(f"entry {name!r}: tensor values must be finite")
        weights[name] = Tensor._wrap(values.reshape(dims))
    if cur.pos != len(buf):
        raise WeightsFormatError(f"{len(buf) - cur.pos} trailing bytes after last entry")
    return weights


def read_weights_file(path) -> dict[str, Tensor]:
    """Parse the file through a read-only map; its Tensors are views of the
    mapped pages, which stay mapped while any of them lives."""
    with open(path, "rb") as f:
        fd = f.fileno()
        # a 0-byte file cannot be mapped
        buf = mmap.mmap(fd, 0, access=mmap.ACCESS_READ) if os.fstat(fd).st_size else b""
    return _parse(buf)
