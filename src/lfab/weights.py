"""Binary weights file: "LFWB" magic, named float32 arrays, little-endian.

Layout: 4-byte magic, u32 entry count, then per entry a u32 name length,
the UTF-8 name, u32 ndim, ndim u32 dims, and dim-product f32 values. Every
integer and float is little-endian. Names must be unique and the byte
length of the file is exactly determined by its headers; anything else is
a format error.

Files are streamed both ways: the reader reads each entry's values straight
into the array its Tensor keeps, and the writer writes each array's own
buffer, so neither ever holds a whole-file copy next to the model. The
reader parses every header first, then reads the values of all entries in
one split over lfab's threads, block by block, each block finite-checked
while it is still in cache; errors are reported as a sequential read would
find them.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import WeightsFormatError
from .tensor import TILE_BYTES, Tensor, _split

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


# Values are read and finite-checked one block at a time, so each block is
# checked while it is still in a core's L2 cache and the check's mask is a
# quarter block. Smaller blocks lose more to the threads' turns at the
# interpreter lock than they gain in cache.
_BLOCK = 4 * TILE_BYTES


def _pread(fd: int, buf: memoryview, offset: int) -> int:
    """Fill buf from the file at offset: the bytes read, fewer only where the
    file ends. os.preadv moves no file position, so threads share fd."""
    got = 0
    while got < len(buf):
        n = os.preadv(fd, [buf[got:]], offset + got)
        if n == 0:
            break
        got += n
    return got


class _Reader:
    """Parses an open file of known size, checking each length before it
    reads."""

    def __init__(self, fd: int, size: int):
        self.fd = fd
        self.size = size
        self.pos = 0

    def claim(self, n: int) -> int:
        if n > self.size - self.pos:
            raise WeightsFormatError(
                f"truncated weights file: needed {n} bytes at offset {self.pos}, "
                f"have {self.size - self.pos}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        offset = self.claim(n)
        buf = bytearray(n)
        _check_read(_pread(self.fd, memoryview(buf), offset), n, offset)
        return bytes(buf)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _check_read(got: int, n: int, offset: int) -> None:
    # the file ended before its stated size (it shrank)
    if got != n:
        raise WeightsFormatError(
            f"truncated weights file: needed {n} bytes at offset {offset}, "
            f"read {got}"
        )


def _parse(cur: _Reader, entries: list) -> dict[str, Tensor]:
    """Parse every header, appending (name, offset, byte view of the
    unread array) to entries in file order."""
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
        # claimed before allocating, so a corrupt header cannot ask for more
        # memory than the file holds
        offset = cur.claim(4 * math.prod(dims))
        arr = np.empty(dims, dtype="<f4")
        # the view is taken while arr is writeable; its Tensor is not
        entries.append((name, offset, memoryview(arr).cast("B")))
        weights[name] = Tensor._wrap(arr)
    if cur.pos != cur.size:
        raise WeightsFormatError(f"{cur.size - cur.pos} trailing bytes after last entry")
    return weights


def _read_values(fd: int, entries: list) -> None:
    """Read every entry's values in one _split over their blocks; raise the
    first entry, in file order, whose read came up short or holds a
    non-finite value."""
    blocks = [(raw[b0:b0 + _BLOCK], offset + b0)
              for _, offset, raw in entries for b0 in range(0, len(raw), _BLOCK)]
    done: list = [None] * len(blocks)

    def part(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            block, offset = blocks[i]
            n = _pread(fd, block, offset)
            done[i] = n, n == len(block) and bool(
                np.isfinite(np.frombuffer(block, "<f4")).all())

    _split(part, len(blocks))
    i = 0
    for name, offset, raw in entries:
        k = -(-len(raw) // _BLOCK)  # the entry's blocks
        reads, i = done[i:i + k], i + k
        _check_read(sum(n for n, _ in reads), len(raw), offset)
        if not all(ok for _, ok in reads):
            raise WeightsFormatError(f"entry {name!r}: tensor values must be finite")


def _read_weights(fd: int, size: int) -> dict[str, Tensor]:
    """The one LFWB parser, over an open file that holds size bytes. Every
    header is parsed, claimed and allocated first; then the values of every
    entry parsed are read, and an entry's short read or non-finite value is
    raised before any header error."""
    entries: list = []
    try:
        weights = _parse(_Reader(fd, size), entries)
    except WeightsFormatError:
        _read_values(fd, entries)
        raise
    _read_values(fd, entries)
    return weights


def read_weights_file(path) -> dict[str, Tensor]:
    with open(path, "rb") as f:
        fd = f.fileno()
        return _read_weights(fd, os.fstat(fd).st_size)
