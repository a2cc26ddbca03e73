"""float32 tensor substrate with deterministic CPU kernels.

Design rules, enforced here so every higher layer inherits them:

- storage is always contiguous row-major float32; reductions (matmul, conv,
  norm statistics, softmax) accumulate in float64 and round once on output;
- kernels may reorder memory but never arithmetic: tiles, in-place ufuncs
  and a changed start of a sum are allowed, a new summation order or a BLAS
  call shape that rounds differently is not, so every speedup is
  byte-identical;
- the depthwise conv, the norms, the sigmoid and the time mean work on
  tiles of TILE_BYTES of float64 scratch, reused across the call: blocks of
  whole rows, or segments of one row when a row is longer than a tile;
  softmax_rows and batched_matmul work on blocks of whole rows or batch
  entries of a few tiles; the separable conv makes its output in column
  blocks of at most _BLOCK_COLS columns and _GEMM_BLOCK_BYTES of float64
  depthwise output; so none
  of these builds a float64 temporary that grows with the input beyond a
  block. The dense products cast their weight to float64 in blocks of
  whole rows of _GEMM_BLOCK_BYTES (their input is widened whole);
- the thread pool (_split) runs a kernel's loop in contiguous parts, each
  with its own scratch, writing disjoint slices of an output the caller
  owns; no part of a dense product has fewer than MIN_GEMM_ROWS rows or
  columns, so the bytes are the same at any thread count; a split made
  inside a part runs on that part's thread;
- signed zeros: a float64 sum that starts at +0.0 is never -0.0, so adding a
  signed zero leaves it unchanged (the depthwise conv's zero-padded taps
  add w * 0.0 = ±0.0), and a sum that starts at its first term instead
  differs from one that starts at +0.0 only in a zero's sign, which a final
  + 0.0 sets back to +0.0;
- operations are pure: inputs are never written, repeated calls are
  bit-identical;
- "same" padding splits K-1 as floor((K-1)/2) left, ceil((K-1)/2) right;
- argmax ties resolve to the lowest index;
- every Tensor registers its buffer with the allocation accounting below,
  which is what bench.sweep_rtf reads.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import NumericDomainError, ShapeError

# ---------------------------------------------------------------------------
# allocation accounting

_LIVE_BYTES = 0
_TRACKERS: list["AllocationTracker"] = []


def _note_alloc(nbytes: int) -> None:
    global _LIVE_BYTES
    _LIVE_BYTES += nbytes
    for t in _TRACKERS:
        if _LIVE_BYTES > t._high:
            t._high = _LIVE_BYTES


def _note_free(nbytes: int) -> None:
    global _LIVE_BYTES
    _LIVE_BYTES -= nbytes


class AllocationTracker:
    """Context manager recording the high-water mark of live tensor bytes.

    peak_bytes is reported relative to the bytes live at entry, so tensors
    that already existed (model weights, inputs) do not count.
    """

    def __init__(self) -> None:
        self._baseline = 0
        self._high = 0

    def __enter__(self) -> "AllocationTracker":
        self._baseline = _LIVE_BYTES
        self._high = _LIVE_BYTES
        _TRACKERS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TRACKERS.remove(self)

    @property
    def peak_bytes(self) -> int:
        return self._high - self._baseline


# ---------------------------------------------------------------------------
# the Tensor type


class Tensor:
    """Immutable dense float32 tensor. Data is flat, row-major, contiguous."""

    __slots__ = ("_a", "__weakref__")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float32, order="C")
        if arr.size == 0:
            raise ShapeError("tensor must be non-empty")
        if not np.isfinite(arr).all():
            raise NumericDomainError("tensor values must be finite")
        self._attach(arr)

    def _attach(self, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        self._a = arr
        # only buffers this tensor owns count toward live bytes; views add 0
        owned = arr.nbytes if arr.base is None else 0
        _note_alloc(owned)
        weakref.finalize(self, _note_free, owned)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # internal: take ownership of a freshly computed float32 array
        self = cls.__new__(cls)
        self._attach(np.ascontiguousarray(arr, dtype=np.float32))
        return self

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls._wrap(np.zeros(shape, dtype=np.float32))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def ndim(self) -> int:
        return self._a.ndim

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def nbytes(self) -> int:
        return self._a.nbytes

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the underlying buffer."""
        return self._a

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _as2d(x: Tensor, name: str) -> np.ndarray:
    if x.ndim != 2:
        raise ShapeError(f"{name} must be rank 2, got rank {x.ndim}")
    return x._a


# ---------------------------------------------------------------------------
# threads

# lfab's own threads, one per CPU this process may run on (taskset limits it)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Fewest rows of a GEMM, and of each part of a split product. OpenBLAS
# rounds a GEMM of fewer rows differently (other kernels); from this height
# on, a row's bits do not depend on the row count.
MIN_GEMM_ROWS = 16

# thread-count setters of the OpenBLAS builds numpy ships
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")

# glibc's mallopt parameter for the number of malloc arenas
_M_ARENA_MAX = -8


def _hold_blas_at_one_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread; a no-op where it exports
    no setter. A threaded OpenBLAS call leaves its worker spinning for about
    120 ms, which takes a core from lfab's threads, so lfab makes no
    threaded BLAS call and splits its own work instead."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


@functools.lru_cache(maxsize=1)
def _pool(pid: int) -> ThreadPoolExecutor:
    """lfab's thread pool, made on first use in each process (pid): a forked
    child has none of its parent's threads. Its threads run only numpy and
    private helpers that write into buffers the caller owns: no Tensor is
    made there, since the live-byte accounting is not locked.

    The threads allocate from glibc's one main malloc arena (a no-op where
    libc has no mallopt). Each arena may keep up to twice the mmap
    threshold of freed heap untrimmed, and an arena of the pool's own
    raised table2-encode's peak RSS by 15 MiB (2-core Xeon VM, glibc 2.36).
    """
    _hold_blas_at_one_thread()
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)
    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="lfab")


def _even(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """k contiguous (b0, b1) parts of range(lo, hi), as even as can be."""
    n = hi - lo
    return [(lo + n * i // k, lo + n * (i + 1) // k) for i in range(k)]


def _parts(n: int, min_size: int) -> list[tuple[int, int]]:
    """(lo, hi) parts of range(n), at most _WORKERS of them, as even as can
    be, each at least min_size long unless n itself is shorter."""
    return _even(0, n, max(1, min(_WORKERS, n // min_size)))


# set on a thread while it runs one part of a split over several threads
_IN_PART = threading.local()


def _split(fn, n: int, min_size: int = 1) -> None:
    """Run fn(lo, hi) over _parts(n, min_size): the caller runs part 0 and
    the pool the rest. Returns once every part is done; a part's exception
    is raised after that. A split of one part, or a split made inside a
    part of another (whose threads are all busy), runs fn(0, n) on the
    calling thread."""
    pool = _pool(os.getpid())
    parts = _parts(n, min_size)
    if len(parts) == 1 or getattr(_IN_PART, "on", False):
        fn(0, n)
        return
    futures = [pool.submit(_run_part, fn, *part) for part in parts[1:]]
    try:
        _run_part(fn, *parts[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _run_part(fn, lo: int, hi: int) -> None:
    _IN_PART.on = True
    try:
        fn(lo, hi)
    finally:
        _IN_PART.on = False


# ---------------------------------------------------------------------------
# convolution


# bytes of each float64 scratch tile; the depthwise conv's four tiles stay in
# a core's L2 cache
TILE_BYTES = 2**18

# bytes of each float64 row block of a weight in the dense products: large
# enough to keep each BLAS call at full speed, far below the 171 MiB cast of
# a whole (4736, 4736) weight
_GEMM_BLOCK_BYTES = 2**24

# most columns of a separable-conv block, where _GEMM_BLOCK_BYTES would hold
# more: 82 s of 10 ms frames. Every Table 2 layer at 30 s (at most 2998
# columns) fits one block, and casting the pointwise weight once per block
# costs 1/8192 of the block's multiply-adds. A byte bound alone cannot
# block a long narrow input, such as a toy preset's (80, 12000) at 240 s,
# without splitting Table 2's (592, 2998), which holds more bytes. Blocks
# of 4096 columns held 16 MiB more glibc heap on ctc-longform (135.9
# against 119.3 MiB peak RSS, 2-core Xeon VM), from the churn of their
# per-block buffers.
_BLOCK_COLS = 8192


def _tiles(rows: int, cols: int, per: int):
    """(r0, r1, c0, c1) tiles of a (rows, cols) array, per elements at most:
    blocks of whole rows, or column segments of one row when a row is
    longer than per."""
    if cols <= per:
        step = per // cols
        for r0 in range(0, rows, step):
            yield r0, min(r0 + step, rows), 0, cols
    else:
        for r in range(rows):
            for c0 in range(0, cols, per):
                yield r, r + 1, c0, min(c0 + per, cols)


def conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Depthwise 1-D convolution over (channels, time), "same" padding, stride 1.

    w is (C, 1, K), one K-tap filter per channel, as in the conformer conv
    module; pointwise convs are matmul. Any other weight is a ShapeError
    that names the axis.
    """
    xa = _as2d(x, "conv1d input (channels, time)")
    if w.ndim != 3:
        raise ShapeError(f"conv1d weight must be rank 3 (C, 1, K), got rank {w.ndim}")
    if w.shape[0] != xa.shape[0]:
        raise ShapeError(f"channels axis: input has {xa.shape[0]}, conv1d weight has {w.shape[0]}")
    if w.shape[1] != 1:
        raise ShapeError(f"conv1d runs depthwise only: weight axis 1 must be 1, got {w.shape[1]}")
    out32 = np.empty(xa.shape, dtype=np.float32)
    _depthwise_conv1d(xa, w._a[:, 0].astype(np.float64), 1, out32)
    return Tensor._wrap(out32)


def _depthwise_conv1d(xa, w64, stride: int, out: np.ndarray, j_off: int = 0) -> None:
    """Depthwise "same" conv of float32 (C, T) by float64 (C, K) taps into out.

    out holds output columns j_off onward of the (T - 1) // stride + 1 the
    whole conv has. Each output is rounded to float32; out is float32, or
    float64 when it is the input of the pointwise GEMM that follows. The
    result is the sum over taps, in order, of
    w[c, tap] * x[c, j * stride + tap - pad_l] with padding read as 0.0,
    started at +0.0 and rounded once.

    A tile holds the zero-padded input of a block of whole rows (or, for a
    row longer than a tile, one row's segment), each row stride * la slots
    long for la output slots, flat: tap j of output slot i then reads flat
    index stride * i + j, so each tap is one 1-D ufunc over the tile. Slots
    past a row's last output read into the next row and are dropped. The
    tap weights are expanded to the tile's shape (a one-row tile takes the
    scalar), so no multiply broadcasts a (C, 1) column.

    The first tap's product is the accumulator itself, with no +0.0 start:
    (+0.0 + p0) equals p0 unless p0 is -0.0, and from there the two sums
    differ at most in the sign of a zero. A sum that starts at +0.0 is never
    -0.0, so the final np.add(acc, 0.0) into float32 gives exactly its bits.
    The padding taps add w * 0.0 = ±0.0, which leaves the sum unchanged.
    """
    c, t = xa.shape
    k = w64.shape[1]
    pad_l = (k - 1) // 2
    t_out = out.shape[1]
    span = -(-k // stride)  # slots a row needs past its last output
    slots = TILE_BYTES // (8 * stride)
    cols = t_out if t_out - 1 + span <= slots else max(1, slots - span + 1)
    rows = min(c, max(1, slots // (cols - 1 + span)))
    size = rows * (cols - 1 + span)
    tiles = list(_tiles(c, t_out, rows * cols))

    def part(i0: int, i1: int) -> None:
        xs = np.empty(stride * size, dtype=np.float64)
        acc, prod, wx = (np.empty(size, dtype=np.float64) for _ in range(3))
        r32 = None if out.dtype == np.float32 else np.empty(rows * cols, dtype=np.float32)
        for r0, r1, j0, j1 in tiles[i0:i1]:
            cb, w = r1 - r0, j1 - j0
            la = w - 1 + span
            n = (cb - 1) * la + w  # slots up to the block's last output
            start = (j_off + j0) * stride - pad_l
            lo, hi = max(start, 0), min(start + stride * la, t)
            x2 = xs[: cb * stride * la].reshape(cb, stride * la)
            x2[:, : lo - start] = 0.0
            x2[:, lo - start : hi - start] = xa[r0:r1, lo:hi]
            x2[:, hi - start :] = 0.0
            a = acc[:n]
            for j in range(k):
                if cb == 1:
                    wj = w64[r0, j]
                else:
                    wx[: cb * la].reshape(cb, la)[...] = w64[r0:r1, j : j + 1]
                    wj = wx[:n]
                src = xs[j : j + stride * (n - 1) + 1 : stride]
                if j == 0:
                    np.multiply(src, wj, out=a)
                else:
                    np.multiply(src, wj, out=prod[:n])
                    a += prod[:n]
            res = acc[: cb * la].reshape(cb, la)[:, :w]
            if r32 is None:
                np.add(res, 0.0, out=out[r0:r1, j0:j1])
            else:
                r = r32[: cb * w].reshape(cb, w)
                np.add(res, 0.0, out=r)
                out[r0:r1, j0:j1] = r

    _split(part, len(tiles))


def _row_blocks(r0: int, r1: int, k: int):
    """(b0, b1) blocks of whole rows r0..r1 of a weight K wide, each at most
    _GEMM_BLOCK_BYTES / _WORKERS as float64, or one row when a row is
    longer: the threads' parts together cast at most _GEMM_BLOCK_BYTES.

    Each output element of a dense product is the dot of one weight row
    with one input column. OpenBLAS 0.3.31 sums it the same way whichever
    rows or columns share its call, from MIN_GEMM_ROWS of them on, so the
    blocks and the threads' parts give the whole product's bits; the tensor
    tests check this against the whole product.
    """
    step = max(1, _GEMM_BLOCK_BYTES // (8 * k * _WORKERS))
    for b0 in range(r0, r1, step):
        yield b0, min(b0 + step, r1)


def _gemm(w32: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float32 (M, K) times (K, N) in float64, rounded once to float32 into
    out (M, N), or into a new array.

    The threads split the product along W's rows when they outnumber x's
    columns, and along x's columns otherwise. Each part casts and
    multiplies its rows of W one block at a time (_row_blocks), each
    block's float64 product rounded into its part of the float32 output;
    a cast block is a temporary of the product expression, freed before
    the next block is cast. Keeping a cast buffer across blocks fragmented
    the heap: on some ctc-longform inputs peak RSS rose by 18 MiB after 10
    to 20 calls (2-core Xeon VM, glibc malloc). BLAS accumulators start at
    +0.0, as a zero-initialised sum does. A float32 x is widened through
    np.zeros, not astype, which left glibc holding more heap after the
    call.
    """
    if x.dtype != np.float64:
        x64 = np.zeros(x.shape, dtype=np.float64)
        x64[...] = x
        x = x64
    (m, k), n = w32.shape, x.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=np.float32)

    def part(r0: int, r1: int, c0: int, c1: int) -> None:
        for b0, b1 in _row_blocks(r0, r1, k):
            out[b0:b1, c0:c1] = w32[b0:b1].astype(np.float64) @ x[:, c0:c1]

    if m > n:
        _split(lambda r0, r1: part(r0, r1, 0, n), m, MIN_GEMM_ROWS)
    else:
        _split(lambda c0, c1: part(0, m, c0, c1), n, MIN_GEMM_ROWS)
    return out


def depthwise_separable_conv1d(x: Tensor, w_dw: Tensor, w_pw: Tensor, stride: int = 1) -> Tensor:
    """Depthwise "same" conv (one K-tap filter per channel), then a pointwise mix.

    w_dw: (C, K), w_pw: (C_out, C). Output length (T - 1) // stride + 1.
    Parameter cost K*C + C*C_out versus K*C*C_out for a dense kernel.

    The output is made in column blocks of at most _BLOCK_COLS columns and
    _GEMM_BLOCK_BYTES of float64 depthwise output (never under
    MIN_GEMM_ROWS columns): a block's depthwise tiles go into a float64
    buffer that the pointwise GEMM then reads, so no (C, T') float64 copy
    of a long input exists. The threads take parts of at least one
    block's width; an input of under two blocks is one part, whose
    depthwise tiles and GEMM the threads split instead, so a wide weight
    that fits one block is cast once per call. A column's bits do not
    depend on its block (see _row_blocks).
    """
    if w_dw.ndim != 2:
        raise ShapeError(f"depthwise weight must be rank 2 (C, K), got rank {w_dw.ndim}")
    if w_pw.ndim != 2:
        raise ShapeError(f"pointwise weight must be rank 2 (C_out, C), got rank {w_pw.ndim}")
    c = w_dw.shape[0]
    if x.shape[0] != c:
        raise ShapeError(f"channels axis: input has {x.shape[0]}, depthwise weight has {c}")
    if w_pw.shape[1] != c:
        raise ShapeError(f"channels axis: pointwise expects {w_pw.shape[1]}, depthwise yields {c}")
    xa = _as2d(x, "conv1d input (channels, time)")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    t_out = (xa.shape[1] - 1) // stride + 1
    w64 = w_dw._a.astype(np.float64)
    cols = _block_cols(c)
    out = None
    made = threading.Lock()

    def part(j0: int, j1: int) -> None:
        nonlocal out
        blocks = _even(j0, j1, max(1, min(-(-(j1 - j0) // cols), (j1 - j0) // MIN_GEMM_ROWS)))
        # one buffer per part, built with np.zeros for the reason given in _gemm
        buf = np.zeros(c * max(b1 - b0 for b0, b1 in blocks), dtype=np.float64)
        for b0, b1 in blocks:
            y64 = buf[: c * (b1 - b0)].reshape(c, b1 - b0)
            _depthwise_conv1d(xa, w64, stride, y64, b0)
            # out is made once a block's depthwise tiles are freed, so a
            # one-block call peaks where it did before blocks
            with made:
                if out is None:
                    out = np.empty((w_pw.shape[0], t_out), dtype=np.float32)
            _gemm(w_pw._a, y64, out[:, b0:b1])

    _split(part, t_out, cols)
    return Tensor._wrap(out)


def _block_cols(c: int) -> int:
    """Columns of a separable-conv block of a C-channel input."""
    return max(MIN_GEMM_ROWS, min(_BLOCK_COLS, _GEMM_BLOCK_BYTES // (8 * c)))


def separable_param_count(c_in: int, c_out: int, k: int) -> int:
    return k * c_in + c_in * c_out


# ---------------------------------------------------------------------------
# normalization


def batch_norm_infer(
    x: Tensor, gamma: Tensor, beta: Tensor, mean: Tensor, var: Tensor, eps: float = 1e-5
) -> Tensor:
    """Inference-mode batch norm over (channels, time) with fixed statistics."""
    xa = _as2d(x, "batch_norm input (channels, time)")
    c = xa.shape[0]
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if p.shape != (c,):
            raise ShapeError(f"channels axis: {name} expected ({c},), got {p.shape}")
    denom = var._a.astype(np.float64) + eps
    if (denom <= 0.0).any():
        raise NumericDomainError(f"batch_norm variance + eps must be positive, eps={eps}")
    mu, sd = mean._a.astype(np.float64)[:, None], np.sqrt(denom)[:, None]
    g, b = gamma._a.astype(np.float64)[:, None], beta._a.astype(np.float64)[:, None]
    out = np.empty(xa.shape, dtype=np.float32)
    tiles = list(_tiles(*xa.shape, TILE_BYTES // 8))

    def part(i0: int, i1: int) -> None:
        buf = np.empty(min(xa.size, TILE_BYTES // 8), dtype=np.float64)
        for r0, r1, c0, c1 in tiles[i0:i1]:
            y = buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.subtract(xa[r0:r1, c0:c1], mu[r0:r1], out=y)
            y /= sd[r0:r1]
            y *= g[r0:r1]
            np.add(y, b[r0:r1], out=out[r0:r1, c0:c1])

    _split(part, len(tiles))
    return Tensor._wrap(out)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer norm over (rows, features), population variance.

    Works on blocks of whole rows, so each row's mean and variance are the
    same contiguous float64 reductions as over the whole array; a row longer
    than a tile is a block of its own.
    """
    xa = _as2d(x, "layer_norm input (rows, features)")
    rows, d = xa.shape
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"features axis: gamma/beta expected ({d},)")
    g, b = gamma._a.astype(np.float64), beta._a.astype(np.float64)
    step = min(rows, max(1, TILE_BYTES // (8 * d)))
    out = np.empty(xa.shape, dtype=np.float32)

    def part(i0: int, i1: int) -> None:
        buf, sq = np.empty((step, d), dtype=np.float64), np.empty((step, d), dtype=np.float64)
        for r0 in range(i0 * step, min(i1 * step, rows), step):
            r1 = min(r0 + step, rows)
            y, s = buf[: r1 - r0], sq[: r1 - r0]
            y[...] = xa[r0:r1]
            y -= y.mean(axis=1, keepdims=True)
            np.square(y, out=s)
            y /= np.sqrt(s.mean(axis=1, keepdims=True) + eps)
            y *= g
            np.add(y, b, out=out[r0:r1])

    _split(part, -(-rows // step))
    return Tensor._wrap(out)


# ---------------------------------------------------------------------------
# elementwise


def relu(x: Tensor) -> Tensor:
    return Tensor._wrap(np.maximum(x._a, np.float32(0.0)))


def _sigmoid32(xa: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in float64, rounded to float32, over flat tiles."""
    out = np.empty(xa.shape, dtype=np.float32)
    xf, of = xa.reshape(-1), out.reshape(-1)
    per = TILE_BYTES // 8

    def part(i0: int, i1: int) -> None:
        buf = np.empty(min(xf.size, per), dtype=np.float64)
        for i in range(i0 * per, min(i1 * per, xf.size), per):
            y = buf[: min(per, xf.size - i)]
            np.negative(xf[i : i + per], out=y, dtype=np.float64)
            np.exp(y, out=y)
            y += 1.0
            np.divide(1.0, y, out=of[i : i + per])

    _split(part, -(-xf.size // per))
    return out


def sigmoid(x: Tensor) -> Tensor:
    return Tensor._wrap(_sigmoid32(x._a))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the float32 product of the sigmoid above, in its buffer."""
    s = _sigmoid32(x._a)
    return Tensor._wrap(np.multiply(x._a, s, out=s))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return Tensor._wrap(a._a + b._a)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return Tensor._wrap(a._a * b._a)


def scale_channels(x: Tensor, gains: Tensor) -> Tensor:
    """Multiply each channel row of (C, T) by a per-channel gain."""
    xa = _as2d(x, "scale_channels input (channels, time)")
    if gains.shape != (xa.shape[0],):
        raise ShapeError(f"channels axis: gains expected ({xa.shape[0]},), got {gains.shape}")
    return Tensor._wrap(xa * gains._a[:, None])


def transpose(x: Tensor) -> Tensor:
    return Tensor._wrap(_as2d(x, "transpose input").T)


# numpy's pairwise sum splits only runs longer than this
_PAIRWISE_BLOCK = 128


def mean_over_time(x: Tensor) -> Tensor:
    """Mean over the time axis of (C, T), float64 accumulation."""
    xa = _as2d(x, "mean_over_time input (channels, time)")
    c, t = xa.shape
    per = max(TILE_BYTES // 8, _PAIRWISE_BLOCK)
    sums = np.empty(c, dtype=np.float64)
    buf = np.empty(min(xa.size, per), dtype=np.float64)
    if t <= per:
        for r0, r1, _, _ in _tiles(c, t, per):
            y = buf[: (r1 - r0) * t].reshape(r1 - r0, t)
            y[...] = xa[r0:r1]
            np.add.reduce(y, axis=1, out=sums[r0:r1])
    else:
        for r in range(c):
            sums[r] = _row_sum(xa[r], buf)
    return Tensor._wrap(np.divide(sums, t, out=np.empty(c, dtype=np.float32)))


def _row_sum(row: np.ndarray, buf: np.ndarray) -> float:
    """np.add.reduce of row in float64, bit for bit, through buf as scratch.

    numpy sums a contiguous float64 run pairwise: a run of n > 128 is the
    sum of its first n2 = n // 2 rounded down to a multiple of 8 elements
    and of the rest. Splitting the same way until a run fits buf, which
    holds at least 128, gives the same tree. numpy starts each run's sum at
    +0.0, which changes only a -0.0 into +0.0, and the whole row's +0.0
    start makes a zero sum +0.0 either way.
    """
    n = row.size
    if n <= buf.size:
        y = buf[:n]
        y[...] = row
        return np.add.reduce(y)
    n2 = n // 2 - (n // 2) % 8
    return _row_sum(row[:n2], buf) + _row_sum(row[n2:], buf)


# ---------------------------------------------------------------------------
# matmul family


def matmul(a: Tensor, b: Tensor) -> Tensor:
    aa = _as2d(a, "matmul lhs")
    ba = _as2d(b, "matmul rhs")
    if aa.shape[1] != ba.shape[0]:
        raise ShapeError(f"inner axis mismatch: lhs {aa.shape} vs rhs {ba.shape}")
    return Tensor._wrap(_gemm(aa, ba))


def batched_matmul(a: Tensor, b: Tensor, scale: float = 1.0) -> Tensor:
    """matmul over the last two axes with matching leading batch axes.

    Works in blocks of batch entries whose float64 casts and product fit
    four tiles (4 * TILE_BYTES), or one entry when an entry is larger; the
    threads split the blocks. Each entry is its own product, so its bits do
    not depend on its block."""
    if a.ndim != b.ndim or a.ndim < 2:
        raise ShapeError(f"batched_matmul rank mismatch: {a.shape} vs {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"batch axes mismatch: {a.shape[:-2]} vs {b.shape[:-2]}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner axis mismatch: lhs {a.shape} vs rhs {b.shape}")
    (m, k), n = a.shape[-2:], b.shape[-1]
    out = np.empty(a.shape[:-1] + (n,), dtype=np.float32)
    # out, not a view of it, is the result
    a3, b3, out3 = a._a.reshape(-1, m, k), b._a.reshape(-1, k, n), out.reshape(-1, m, n)
    per = max(1, 4 * TILE_BYTES // (8 * (m * k + k * n + m * n)))
    blocks = _even(0, len(a3), -(-len(a3) // per))

    def part(i0: int, i1: int) -> None:
        most = max(j1 - j0 for j0, j1 in blocks[i0:i1])
        a64, b64, y = (np.empty((most,) + s, dtype=np.float64) for s in ((m, k), (k, n), (m, n)))
        for j0, j1 in blocks[i0:i1]:
            nb = j1 - j0
            a64[:nb] = a3[j0:j1]
            b64[:nb] = b3[j0:j1]
            np.matmul(a64[:nb], b64[:nb], out=y[:nb])
            if scale != 1.0:
                y[:nb] *= scale
            out3[j0:j1] = y[:nb]

    _split(part, len(blocks))
    return Tensor._wrap(out)


def linear_rows(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map of row vectors: (T, D_in) @ w(D_out, D_in)^T + b.

    The threads split w's rows; each part walks its row blocks
    (_row_blocks) into column blocks of the output, cast as in _gemm, each
    block with its float64 bias added before the single rounding.
    """
    xa = _as2d(x, "linear input (rows, features)")
    wa = _as2d(w, "linear weight (out, in)")
    if xa.shape[1] != wa.shape[1]:
        raise ShapeError(f"features axis mismatch: input {xa.shape} vs weight {wa.shape}")
    if b is not None and b.shape != (wa.shape[0],):
        raise ShapeError(f"bias axis: expected ({wa.shape[0]},), got {b.shape}")
    x64 = xa.astype(np.float64)
    m, k = wa.shape
    out = np.empty((xa.shape[0], m), dtype=np.float32)

    def part(r0: int, r1: int) -> None:
        for b0, b1 in _row_blocks(r0, r1, k):
            y = x64 @ wa[b0:b1].astype(np.float64).T
            if b is not None:
                y += b._a[b0:b1].astype(np.float64)
            out[:, b0:b1] = y

    _split(part, m, MIN_GEMM_ROWS)
    return Tensor._wrap(out)


# ---------------------------------------------------------------------------
# softmax / argmax


def _slabs(shape: tuple[int, ...], per: int) -> list[tuple]:
    """Index tuples of blocks of whole rows (the last axis) of an array of
    this shape, in order, each at most per elements, or one row when a row
    is longer: a slice along the outermost axis whose slabs fit, every
    later axis whole, and one index on each earlier axis."""
    if len(shape) == 1:
        return [()]
    a, size = len(shape) - 2, shape[-1]
    while a > 0 and size * shape[a] <= per:
        size *= shape[a]
        a -= 1
    step = max(1, per // size)
    return [outer + (slice(lo, min(lo + step, shape[a])),)
            for outer in np.ndindex(*shape[:a]) for lo in range(0, shape[a], step)]


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row softmax along the last axis with max subtraction.

    mask (optional, bool, broadcastable) marks the positions allowed to
    receive weight; masked positions come out exactly 0. A row with every
    position masked is an error.

    Works in blocks of whole rows (_slabs) of at most two tiles
    (2 * TILE_BYTES) of float64; the threads split the blocks. Each block
    reads the mask's slice for its rows, which keeps the mask's own shape
    where it broadcasts, so the mask is never copied to the scores' shape.
    """
    xa = x._a
    m = None
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        np.broadcast_to(m, xa.shape)  # raises unless the mask broadcasts
        if not m.any(axis=-1).all():
            raise NumericDomainError("empty attention row: all positions masked for some query")
        m = m.reshape((1,) * (xa.ndim - m.ndim) + m.shape)
    out = np.empty(xa.shape, dtype=np.float32)
    per = 2 * TILE_BYTES // 8
    blocks = _slabs(xa.shape, per)

    def part(i0: int, i1: int) -> None:
        buf = np.empty(max(xa[idx].size for idx in blocks[i0:i1]), dtype=np.float64)
        for idx in blocks[i0:i1]:
            xb = xa[idx]
            y = buf[: xb.size].reshape(xb.shape)
            y[...] = xb
            if m is None:
                y -= y.max(axis=-1, keepdims=True)
                np.exp(y, out=y)
            else:
                keep = m[tuple(i if m.shape[ax] > 1 else 0 if isinstance(i, int) else slice(None)
                               for ax, i in enumerate(idx))]
                drop = ~keep
                # -inf in the masked slots for the max, then +0.0 before
                # exp, which keeps its input finite (exp is slow on -inf),
                # and +0.0 again after, as exp(-inf) gives. Where the max
                # is a zero, its sign reaches only zero exp inputs, and
                # exp(-0.0) == exp(+0.0).
                np.copyto(y, -np.inf, where=drop)
                y -= y.max(axis=-1, keepdims=True)
                np.copyto(y, 0.0, where=drop)
                np.exp(y, out=y)
                y *= keep
            np.divide(y, y.sum(axis=-1, keepdims=True), out=out[idx])

    _split(part, len(blocks))
    return Tensor._wrap(out)


def argmax_rows(x: Tensor) -> np.ndarray:
    """Index of the max along the last axis; ties go to the lowest index."""
    return np.argmax(x._a, axis=-1)
