"""Multi-head self-attention with optional banded (limited-context) masking.

Three interchangeable evaluation strategies over the same weights:

- mha_full: dense attention, O(T^2) score storage; with a band mask
  outside [i - left, i + right] (attend_with_mask), the reference every
  efficient path is tested against;
- lca_chunked: overlapping-chunk evaluation that never materializes a T x T
  matrix; it runs in blocks of chunks, so beyond the (T, D) projections and
  context its score storage is one block, about four tiles (TILE_BYTES) of
  float32 scores, whatever T is;
- lca_global_token: chunked band plus one virtual position that every query
  attends to and that attends to everything; its own output row is dropped.

All paths share one projection/softmax code path, so when the band covers the
whole sequence they agree bitwise (masking nothing is a no-op).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import TILE_BYTES, Tensor, batched_matmul, linear_rows, softmax_rows


@dataclass
class AttentionConfig:
    num_heads: int
    head_dim: int
    left_context: int = 128
    right_context: int = 128
    use_global_token: bool = False

    def __post_init__(self):
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.head_dim < 1:
            raise ConfigError(f"head_dim must be >= 1, got {self.head_dim}")
        if self.left_context < 0 or self.right_context < 0:
            raise ConfigError(
                f"context window must be non-negative, got "
                f"({self.left_context}, {self.right_context})"
            )

    @property
    def model_dim(self) -> int:
        return self.num_heads * self.head_dim


@dataclass
class AttentionWeights:
    """Projection weights, all (D, D) with per-projection (D,) biases."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    b_q: Tensor
    b_k: Tensor
    b_v: Tensor
    b_o: Tensor
    global_token: Tensor | None = None  # (1, D) iff the config uses one


def validate_weights(cfg: AttentionConfig, w: AttentionWeights) -> None:
    d = cfg.model_dim
    for name in ("w_q", "w_k", "w_v", "w_o"):
        if getattr(w, name).shape != (d, d):
            raise ConfigError(f"{name} must be ({d}, {d}), got {getattr(w, name).shape}")
    for name in ("b_q", "b_k", "b_v", "b_o"):
        if getattr(w, name).shape != (d,):
            raise ConfigError(f"{name} must be ({d},), got {getattr(w, name).shape}")
    if cfg.use_global_token and w.global_token is None:
        raise ConfigError("config uses a global token but weights carry no embedding")
    if not cfg.use_global_token and w.global_token is not None:
        raise ConfigError("weights carry a global token embedding the config does not use")


def band_mask(t: int, left: int, right: int) -> np.ndarray:
    """(T, T) bool mask: query i may attend to j iff i-left <= j <= i+right."""
    idx = np.arange(t)
    rel = idx[None, :] - idx[:, None]
    return (rel >= -left) & (rel <= right)


def global_token_mask(t: int, left: int, right: int) -> np.ndarray:
    """(T+1, T+1) mask: position 0 is the global token, unmasked both ways."""
    m = np.zeros((t + 1, t + 1), dtype=bool)
    m[0, :] = True
    m[:, 0] = True
    m[1:, 1:] = band_mask(t, left, right)
    return m


def chunk_size(cfg: AttentionConfig) -> int:
    """Chunk length: left + right + 1 rounded up to a multiple of 8."""
    span = cfg.left_context + cfg.right_context + 1
    return ((span + 7) // 8) * 8


def fits_one_chunk(cfg: AttentionConfig, t: int) -> bool:
    """Whether T positions and the global token, if any, fit in one chunk."""
    return t + cfg.use_global_token <= chunk_size(cfg)


def _split_heads(x: Tensor, h: int, dh: int, axes=(1, 0, 2)) -> Tensor:
    # (H, T, dh) by default; a copy even at T = 1, where a view of x's buffer
    # would outlive x
    t = x.shape[0]
    return Tensor._wrap(x.array.reshape(t, h, dh).transpose(axes).copy())


def _merge_heads(ctx: Tensor) -> Tensor:
    h, t, dh = ctx.shape
    return Tensor._wrap(np.ascontiguousarray(ctx.array.transpose(1, 0, 2).reshape(t, h * dh)))


def attend_with_mask(
    x: Tensor, w: AttentionWeights, cfg: AttentionConfig, mask: np.ndarray | None
) -> Tensor:
    """Dense multi-head attention; mask (T, T) limits which keys a query sees."""
    if x.ndim != 2 or x.shape[1] != cfg.model_dim:
        raise ShapeError(
            f"attention input must be (T, {cfg.model_dim}), got {x.shape}"
        )
    h, dh = cfg.num_heads, cfg.head_dim
    q = _split_heads(linear_rows(x, w.w_q, w.b_q), h, dh)
    kt = _split_heads(linear_rows(x, w.w_k, w.b_k), h, dh, (1, 2, 0))  # (H, dh, T)
    v = _split_heads(linear_rows(x, w.w_v, w.b_v), h, dh)
    scores = batched_matmul(q, kt, scale=1.0 / math.sqrt(dh))  # (H, T, T)
    probs = softmax_rows(scores, None if mask is None else mask[None, :, :])
    ctx = batched_matmul(probs, v)  # (H, T, dh)
    return linear_rows(_merge_heads(ctx), w.w_o, w.b_o)


def mha_full(x: Tensor, w: AttentionWeights, cfg: AttentionConfig) -> Tensor:
    """Unmasked dense attention (no residual, no norm: just the sublayer)."""
    validate_weights(cfg, w)
    return attend_with_mask(x, w, cfg, None)


def _windows(arr: np.ndarray, j0: int, n: int, cs: int, win: int) -> np.ndarray:
    """(T, H, dh) -> read-only strided view (n, win, H, dh) of the windows of
    n chunks, the first starting at row j0 (negative at the left edge);
    rows outside 0..T-1 read as zeros."""
    t, h, dh = arr.shape
    rows = (n - 1) * cs + win
    span = np.zeros((rows, h, dh), dtype=arr.dtype)
    lo, hi = max(j0, 0), min(j0 + rows, t)
    span[lo - j0 : hi - j0] = arr[lo:hi]
    s0, s1, s2 = span.strides
    return np.lib.stride_tricks.as_strided(
        span, shape=(n, win, h, dh), strides=(s0 * cs, s0, s1, s2), writeable=False
    )


def _chunked_band(
    x: Tensor,
    w: AttentionWeights,
    cfg: AttentionConfig,
    gt_kv: tuple[np.ndarray, np.ndarray] | None,
) -> Tensor:
    """Shared engine for lca_chunked and lca_global_token.

    Runs in blocks of whole chunks, each block about four tiles
    (4 * TILE_BYTES) of float32 scores, or one chunk when a chunk is larger.
    A block builds only its own padded queries, key and value windows (the
    global token's slot included), mask, scores and probabilities, and
    writes its rows of the (T, D) context. Every row of a chunk is a whole
    softmax row and every (head, chunk) product is its own BLAS call of the
    same shape, so the bytes do not depend on the block size.
    """
    t = x.shape[0]
    h, dh = cfg.num_heads, cfg.head_dim
    left, right = cfg.left_context, cfg.right_context
    cs = chunk_size(cfg)
    n_chunks = -(-t // cs)
    win = cs + left + right
    n_slots = win + (gt_kv is not None)
    per = max(1, 4 * TILE_BYTES // (4 * h * cs * n_slots))  # chunks per block

    # q, k and v own the buffers read below as (T, H, dh) views
    q = linear_rows(x, w.w_q, w.b_q)
    k = linear_rows(x, w.w_k, w.b_k)
    v = linear_rows(x, w.w_v, w.b_v)
    q3, k3, v3 = (p.array.reshape(t, h, dh) for p in (q, k, v))
    merged = np.empty((t, h * dh), dtype=np.float32)

    # slot s of a chunk starting at query row r holds key j = r + s - left
    qi = np.arange(cs)[:, None]
    si = np.arange(win)[None, :]
    band_ok = (si >= qi) & (si <= qi + left + right)  # relative band condition
    for c0 in range(0, n_chunks, per):
        n = min(per, n_chunks - c0)
        r0, r1 = c0 * cs, min((c0 + n) * cs, t)
        # (H, n, cs, dh) queries; tail queries beyond T are padding
        qb = np.zeros((h, n, cs, dh), dtype=np.float32)
        qb.reshape(h, n * cs, dh)[:, : r1 - r0] = q3[r0:r1].transpose(1, 0, 2)
        kb = np.empty((h, n, dh, n_slots), dtype=np.float32)
        vb = np.empty((h, n, n_slots, dh), dtype=np.float32)
        kb[..., :win] = _windows(k3, r0 - left, n, cs, win).transpose(2, 0, 3, 1)
        vb[:, :, :win] = _windows(v3, r0 - left, n, cs, win).transpose(2, 0, 1, 3)

        starts = r0 + cs * np.arange(n)[:, None, None]
        j_abs = starts + si - left
        mask = np.empty((n, cs, n_slots), dtype=bool)
        mask[..., :win] = band_ok & (j_abs >= 0) & (j_abs < t)
        # padded tail queries get one dummy slot so their (discarded) rows softmax
        pad_q = (starts[:, :, 0] + qi[:, 0]) >= t
        if gt_kv is not None:
            k_g, v_g = gt_kv  # each (H, dh)
            kb[..., win] = k_g[:, None, :]
            vb[:, :, win] = v_g[:, None, :]
            mask[..., win] = ~pad_q
        mask[pad_q, :] = False
        mask[pad_q, 0] = True

        # each buffer is held as a Tensor, so it counts as live until freed
        qb, kb, vb = (Tensor._wrap(a) for a in (qb, kb, vb))
        scores = batched_matmul(qb, kb, scale=1.0 / math.sqrt(dh))  # (H, n, cs, slots)
        del qb, kb
        probs = softmax_rows(scores, mask[None])
        del scores
        ctx = batched_matmul(probs, vb)  # (H, n, cs, dh)
        del probs, vb
        merged[r0:r1] = ctx.array.reshape(h, n * cs, dh)[:, : r1 - r0].transpose(
            1, 0, 2).reshape(r1 - r0, h * dh)
        del ctx
    del q, k, v, q3, k3, v3
    return linear_rows(Tensor._wrap(merged), w.w_o, w.b_o)


def lca_chunked(x: Tensor, w: AttentionWeights, cfg: AttentionConfig) -> Tensor:
    """Banded attention via overlapping chunks, one block of scores at a time.

    A sequence that fits in one chunk takes the oracle path outright; chunking
    buys nothing there and the dense band code is exact by construction.
    """
    validate_weights(cfg, w)
    if fits_one_chunk(cfg, x.shape[0]):
        return attend_with_mask(
            x, w, cfg, band_mask(x.shape[0], cfg.left_context, cfg.right_context)
        )
    return _chunked_band(x, w, cfg, None)


def lca_global_token(x: Tensor, w: AttentionWeights, cfg: AttentionConfig) -> Tensor:
    """Banded attention plus one virtual global position.

    The global token is prepended as a learned embedding: every query gains
    it as an extra key/value, and it would attend to everything, but its own
    output row is dropped, so that row is never computed here. Output rows
    align 1:1 with the input.
    """
    validate_weights(cfg, w)
    if not cfg.use_global_token or w.global_token is None:
        raise ConfigError("lca_global_token requires use_global_token and an embedding")
    t = x.shape[0]
    if fits_one_chunk(cfg, t):
        x_aug = Tensor._wrap(np.concatenate([w.global_token.array, x.array], axis=0))
        mask = global_token_mask(t, cfg.left_context, cfg.right_context)
        out = attend_with_mask(x_aug, w, cfg, mask)
        return Tensor._wrap(out.array[1:].copy())
    k_g = linear_rows(w.global_token, w.w_k, w.b_k)  # (1, D)
    v_g = linear_rows(w.global_token, w.w_v, w.b_v)
    hd = (cfg.num_heads, cfg.head_dim)
    return _chunked_band(x, w, cfg, (k_g.array.reshape(hd), v_g.array.reshape(hd)))
