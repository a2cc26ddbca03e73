"""Binary weights file: "LFWB" magic, named float32 arrays, little-endian.

Layout: 4-byte magic, u32 entry count, then per entry a u32 name length,
the UTF-8 name, u32 ndim, ndim u32 dims, and dim-product f32 values. Every
integer and float is little-endian. Names must be unique and the byte
length of the file is exactly determined by its headers; anything else is
a format error.

Files are streamed both ways: the reader reads each entry's values straight
into the array its Tensor keeps, and the writer writes each array's own
buffer, so neither ever holds a whole-file copy next to the model. The
reader parses headers in file order while lfab's thread pool reads the larger
entries' values, block by block, each block finite-checked while it is
still in cache; errors are reported as a sequential read would find them.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, wait

import numpy as np

from .errors import WeightsFormatError
from .tensor import TILE_BYTES, Tensor, _pool

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
# quarter block. A pool task reads one span of blocks; an entry of one block
# or less is read inline. Smaller blocks lose more to the threads' turns at
# the interpreter lock than they gain in cache.
_BLOCK = 4 * TILE_BYTES
_SPAN = 8 * _BLOCK


def _read_span(readinto, raw: memoryview, offset: int, start: int,
               stop: int) -> tuple[int, bool]:
    """Read raw[start:stop] from the source at offset + start, block by
    block: (bytes read, whether every value read is finite)."""
    got, finite = 0, True
    for b0 in range(start, stop, _BLOCK):
        block = raw[b0:min(b0 + _BLOCK, stop)]
        n = readinto(block, offset + b0)
        got += n
        if n != len(block):  # the source ended
            break
        finite = finite and bool(np.isfinite(np.frombuffer(block, "<f4")).all())
    return got, finite


def _start_read(readinto, raw: memoryview, offset: int) -> list:
    """Read an entry's values into raw: on the pool, one future per span,
    or inline for one block or less, giving _read_span's result itself."""
    n = len(raw)
    if n <= _BLOCK:
        return [_read_span(readinto, raw, offset, 0, n)]
    pool = _pool(os.getpid())
    return [pool.submit(_read_span, readinto, raw, offset, s, min(s + _SPAN, n))
            for s in range(0, n, _SPAN)]


class _Reader:
    """Parses a random-access source of known size, checking each length
    before it reads. readinto(buffer, offset) fills buffer from offset and
    returns the bytes read, fewer only where the source ends."""

    def __init__(self, readinto, size: int):
        self.readinto = readinto
        self.size = size
        self.pos = 0

    def _claim(self, n: int) -> int:
        if n > self.size - self.pos:
            raise WeightsFormatError(
                f"truncated weights file: needed {n} bytes at offset {self.pos}, "
                f"have {self.size - self.pos}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        offset = self._claim(n)
        buf = bytearray(n)
        _check_read(self.readinto(memoryview(buf), offset), n, offset)
        return bytes(buf)

    def take_array(self, dims: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """An entry's array, not yet read, and the offset of its values."""
        # claimed before allocating, so a corrupt header cannot ask for more
        # memory than the file holds
        offset = self._claim(4 * math.prod(dims))
        return np.empty(dims, dtype="<f4"), offset

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _check_read(got: int, n: int, offset: int) -> None:
    # the source ended before its stated size (the file shrank)
    if got != n:
        raise WeightsFormatError(
            f"truncated weights file: needed {n} bytes at offset {offset}, "
            f"read {got}"
        )


def _parse(cur: _Reader, reads: list) -> dict[str, Tensor]:
    """Parse every header and start each entry's read, appending (name,
    offset, bytes, parts from _start_read) to reads in file order."""
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
        arr, offset = cur.take_array(dims)
        # the view is taken while arr is writeable; its Tensor is not
        raw = memoryview(arr).cast("B")
        reads.append((name, offset, len(raw), _start_read(cur.readinto, raw, offset)))
        weights[name] = Tensor._wrap(arr)
    if cur.pos != cur.size:
        raise WeightsFormatError(f"{cur.size - cur.pos} trailing bytes after last entry")
    return weights


def _check_reads(reads: list) -> None:
    """Wait for each entry's read, in file order; raise its short read or
    non-finite value."""
    for name, offset, n, parts in reads:
        done = [p.result() if isinstance(p, Future) else p for p in parts]
        _check_read(sum(got for got, _ in done), n, offset)
        if not all(finite for _, finite in done):
            raise WeightsFormatError(f"entry {name!r}: tensor values must be finite")


def _read_weights(readinto, size: int) -> dict[str, Tensor]:
    """The one LFWB parser, over a random-access source holding size bytes
    (see _Reader). Headers are parsed, claimed and allocated in file order
    while earlier entries' values are still being read; an entry's short
    read or non-finite value is raised before any later header error."""
    reads: list = []
    try:
        try:
            weights = _parse(_Reader(readinto, size), reads)
        except WeightsFormatError:
            _check_reads(reads)
            raise
        _check_reads(reads)
        return weights
    finally:
        # no read outlives the call, which may close the source next
        pending = [p for *_, parts in reads for p in parts if isinstance(p, Future)]
        for f in pending:
            f.cancel()
        wait(pending)


def _fd_source(fd: int):
    """A _Reader source over an open file: os.preadv, which no other read
    of the same descriptor can move, so the pool's threads share it."""

    def readinto(buf, offset: int) -> int:
        got = 0
        while got < len(buf):
            n = os.preadv(fd, [buf[got:]], offset + got)
            if n == 0:
                break
            got += n
        return got

    return readinto


def read_weights_file(path) -> dict[str, Tensor]:
    with open(path, "rb") as f:
        fd = f.fileno()
        return _read_weights(_fd_source(fd), os.fstat(fd).st_size)
