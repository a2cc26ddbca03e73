"""Attention tests: band semantics, chunked-vs-oracle equivalence, memory growth."""

import hashlib
import math

import numpy as np
import pytest

from lfab import attention, tensor
from lfab.attention import AttentionConfig
from lfab.errors import ConfigError
from lfab.tensor import Tensor, linear_rows


def init_attention_weights(cfg, rng):
    """Uniform +-1/sqrt(D) draws: the four projections, the four biases,
    then the global token if the config uses one."""
    d = cfg.model_dim
    bound = 1.0 / math.sqrt(d)

    def draw(*shape):
        return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32))

    return attention.AttentionWeights(
        w_q=draw(d, d), w_k=draw(d, d), w_v=draw(d, d), w_o=draw(d, d),
        b_q=draw(d), b_k=draw(d), b_v=draw(d), b_o=draw(d),
        global_token=draw(1, d) if cfg.use_global_token else None,
    )


def make(num_heads=4, head_dim=16, left=128, right=128, gt=False, seed=0):
    cfg = AttentionConfig(num_heads, head_dim, left, right, use_global_token=gt)
    w = init_attention_weights(cfg, np.random.default_rng(seed))
    return cfg, w


def rand_x(t, d, seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal((t, d)).astype(np.float32))


class TestConfig:
    def test_model_dim(self):
        assert AttentionConfig(4, 16).model_dim == 64

    @pytest.mark.parametrize("kwargs", [
        dict(num_heads=0, head_dim=8),
        dict(num_heads=2, head_dim=0),
        dict(num_heads=2, head_dim=8, left_context=-1),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            AttentionConfig(**kwargs)

    def test_chunk_size_is_padded_span(self):
        assert attention.chunk_size(AttentionConfig(1, 8, 128, 128)) == 264
        assert attention.chunk_size(AttentionConfig(1, 8, 3, 4)) == 8
        assert attention.chunk_size(AttentionConfig(1, 8, 0, 0)) == 8

    def test_weights_gt_presence_enforced(self):
        cfg, w = make(gt=False)
        cfg_gt, w_gt = make(gt=True)
        with pytest.raises(ConfigError):
            attention.validate_weights(cfg, w_gt)
        with pytest.raises(ConfigError):
            attention.validate_weights(cfg_gt, w)


class TestMasks:
    def test_band_mask_geometry(self):
        m = attention.band_mask(5, 1, 2)
        # row 2 may see columns 1..4
        np.testing.assert_array_equal(m[2], [False, True, True, True, True])
        assert m.diagonal().all()

    def test_band_mask_window_zero_is_identity(self):
        np.testing.assert_array_equal(attention.band_mask(4, 0, 0), np.eye(4, dtype=bool))

    def test_global_token_row_and_column_fully_open(self):
        m = attention.global_token_mask(6, 1, 1)
        assert m[0].all() and m[:, 0].all()
        np.testing.assert_array_equal(m[1:, 1:], attention.band_mask(6, 1, 1))


class TestFullAttention:
    def test_t1_reduces_to_value_then_output_projection(self):
        cfg, w = make()
        x = rand_x(1, cfg.model_dim)
        got = attention.mha_full(x, w, cfg)
        want = tensor.linear_rows(tensor.linear_rows(x, w.w_v, w.b_v), w.w_o, w.b_o)
        np.testing.assert_array_equal(got.array, want.array)

    def test_deterministic_repeat(self):
        cfg, w = make()
        x = rand_x(33, cfg.model_dim)
        a = attention.mha_full(x, w, cfg)
        b = attention.mha_full(x, w, cfg)
        np.testing.assert_array_equal(a.array, b.array)

    def test_output_shape(self):
        cfg, w = make()
        assert attention.mha_full(rand_x(17, 64), w, cfg).shape == (17, 64)


def lca_masked_oracle(x, w, cfg):
    """Reference banded attention: dense O(T^2) scores plus a band mask."""
    attention.validate_weights(cfg, w)
    mask = attention.band_mask(x.shape[0], cfg.left_context, cfg.right_context)
    return attention.attend_with_mask(x, w, cfg, mask)


class TestMaskedOracle:
    def test_window_zero_attends_only_self(self):
        cfg, w = make(left=0, right=0)
        x = rand_x(7, cfg.model_dim)
        got = lca_masked_oracle(x, w, cfg)
        want = tensor.linear_rows(tensor.linear_rows(x, w.w_v, w.b_v), w.w_o, w.b_o)
        np.testing.assert_allclose(got.array, want.array, atol=2e-6)

    def test_full_window_is_bitwise_mha(self):
        cfg, w = make(left=63, right=63)
        x = rand_x(64, cfg.model_dim)
        a = lca_masked_oracle(x, w, cfg)
        b = attention.mha_full(x, w, cfg)
        np.testing.assert_array_equal(a.array, b.array)

    def test_band_actually_limits_context(self):
        # changing a key outside every query's band must not change outputs
        cfg, w = make(left=2, right=2)
        x = rand_x(32, cfg.model_dim).array.copy()
        base = lca_masked_oracle(Tensor(x), w, cfg).array[:8]
        x2 = x.copy()
        x2[20:] += 5.0  # far outside the band of rows 0..7
        pert = lca_masked_oracle(Tensor(x2), w, cfg).array[:8]
        np.testing.assert_array_equal(base, pert)


class TestChunked:
    def test_single_chunk_exact(self):
        cfg, w = make(left=16, right=16)
        x = rand_x(31, cfg.model_dim)  # 31 < chunk size 40
        a = attention.lca_chunked(x, w, cfg)
        b = lca_masked_oracle(x, w, cfg)
        np.testing.assert_array_equal(a.array, b.array)

    @pytest.mark.parametrize("t,left,right", [
        (100, 4, 4), (257, 16, 16), (300, 0, 8), (511, 8, 0), (1024, 32, 32),
        (97, 1, 1), (640, 128, 128),
    ])
    def test_matches_oracle(self, t, left, right):
        cfg, w = make(left=left, right=right, seed=left * 100 + right)
        x = rand_x(t, cfg.model_dim, seed=t)
        a = attention.lca_chunked(x, w, cfg).array
        b = lca_masked_oracle(x, w, cfg).array
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_never_materializes_dense_scores(self):
        cfg, w = make(num_heads=2, head_dim=8, left=8, right=8)
        x = rand_x(4096, cfg.model_dim)
        attention.lca_chunked(x, w, cfg)  # warm-up outside the tracker
        with tensor.AllocationTracker() as tr:
            attention.lca_chunked(x, w, cfg)
        dense = 2 * 4096 * 4096 * 4
        assert tr.peak_bytes < dense // 20

    @pytest.mark.parametrize("gt", [False, True])
    def test_memory_is_linear_terms_plus_one_block(self, gt):
        # the whole-T terms (q, k, v, the context and the output: 5 T D
        # float32s) grow by equal steps; beyond them only one block of
        # chunks is live: its scores and probabilities, about four tiles
        # each, and its queries and windows
        cfg, w = make(left=16, right=16, gt=gt)
        path = attention.lca_global_token if gt else attention.lca_chunked
        peaks = []
        for t in (1040, 2080, 3120):  # multiples of the 40-wide chunk
            x = rand_x(t, cfg.model_dim)
            path(x, w, cfg)
            with tensor.AllocationTracker() as tr:
                path(x, w, cfg)
            peaks.append(tr.peak_bytes)
            assert tr.peak_bytes - 5 * t * cfg.model_dim * 4 <= 12 * tensor.TILE_BYTES, t
        assert peaks[2] - peaks[1] == peaks[1] - peaks[0], peaks


# sha256 of the output bytes at T = 2657 of make(left=16, right=16, gt=gt,
# seed=11) on rand_x(2657, 64, seed=5): 67 chunks of 40 in blocks of 22,
# so four blocks, the last of one chunk of 17 rows. Taken with numpy 2.4.6
# on OpenBLAS 0.3.31.
PINNED_BLOCKED_OUTPUTS = {
    False: "3354fa1d4912885b3f30d9797799311c85f485dee8075850a541ecdfc4be6993",
    True: "a20474224c5b76a97041c307b893979bc85eef74bcdb10b6a26558b4a4917829",
}


class TestBlocks:
    """The chunked path's bytes do not depend on its blocks or threads."""

    @staticmethod
    def digest(gt):
        cfg, w = make(left=16, right=16, gt=gt, seed=11)
        path = attention.lca_global_token if gt else attention.lca_chunked
        out = path(rand_x(2657, cfg.model_dim, seed=5), w, cfg)
        return hashlib.sha256(out.array.tobytes()).hexdigest()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("gt", [False, True])
    def test_pinned_at_worker_counts(self, gt, workers, monkeypatch):
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        assert self.digest(gt) == PINNED_BLOCKED_OUTPUTS[gt]

    @pytest.mark.parametrize("gt", [False, True])
    def test_pinned_at_one_chunk_per_block(self, gt, monkeypatch):
        monkeypatch.setattr(attention, "TILE_BYTES", 1)
        assert self.digest(gt) == PINNED_BLOCKED_OUTPUTS[gt]


class TestOneChunkFallback:
    """Inputs that fit one chunk run the dense band code only because it is
    faster: the chunked engine gives the same bytes on every one of them."""

    @pytest.mark.parametrize("left,right,gt", [
        (0, 0, False), (3, 4, False), (9, 6, False), (0, 0, True), (3, 4, True), (9, 6, True),
    ])
    def test_chunked_band_matches_dense_fallback(self, left, right, gt):
        cfg, w = make(num_heads=2, head_dim=8, left=left, right=right, gt=gt, seed=left + 5)
        last = attention.chunk_size(cfg) - gt  # the longest input that fits
        assert attention.fits_one_chunk(cfg, last)
        assert not attention.fits_one_chunk(cfg, last + 1)
        gt_kv = None
        if gt:
            hd = (cfg.num_heads, cfg.head_dim)
            gt_kv = tuple(linear_rows(w.global_token, wt, b).array.reshape(hd)
                          for wt, b in ((w.w_k, w.b_k), (w.w_v, w.b_v)))
        path = attention.lca_global_token if gt else attention.lca_chunked
        for t in range(1, last + 1):
            x = rand_x(t, cfg.model_dim, seed=t)
            dense = path(x, w, cfg).array
            chunked = attention._chunked_band(x, w, cfg, gt_kv).array
            assert dense.tobytes() == chunked.tobytes(), t


class TestOracleMemory:
    def test_score_memory_grows_quadratically(self):
        cfg, w = make(left=8, right=8)
        peaks = {}
        for t in (512, 1024):
            x = rand_x(t, cfg.model_dim)
            lca_masked_oracle(x, w, cfg)
            with tensor.AllocationTracker() as tr:
                lca_masked_oracle(x, w, cfg)
            peaks[t] = tr.peak_bytes
        ratio = peaks[1024] / peaks[512]
        assert 3.5 <= ratio <= 4.5, ratio

    def test_heads_counted_at_one_frame(self):
        # at T = 1 the head split of a projection is contiguous as it is; the
        # heads must still count as buffers of their own while they are read
        cfg, w = make()
        for t in (1, 2):
            x = rand_x(t, cfg.model_dim)
            with tensor.AllocationTracker() as tr:
                attention.mha_full(x, w, cfg)
            assert tr.peak_bytes >= 3 * x.nbytes, t


class TestGlobalToken:
    def test_requires_embedding(self):
        cfg, w = make(gt=True)
        w.global_token = None
        with pytest.raises(ConfigError):
            attention.lca_global_token(rand_x(8, cfg.model_dim), w, cfg)

    def test_full_window_equals_augmented_mha(self):
        cfg, w = make(left=63, right=63, gt=True)
        x = rand_x(40, cfg.model_dim)
        got = attention.lca_global_token(x, w, cfg)
        x_aug = Tensor(np.concatenate([w.global_token.array, x.array], axis=0))
        want = attention.mha_full(x_aug, w, cfg).array[1:]
        assert got.shape == (40, cfg.model_dim)
        np.testing.assert_allclose(got.array, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("t,left,right", [(300, 8, 8), (777, 16, 4), (128, 2, 2)])
    def test_matches_augmented_masked_oracle(self, t, left, right):
        cfg, w = make(left=left, right=right, gt=True, seed=7)
        x = rand_x(t, cfg.model_dim, seed=t + 1)
        got = attention.lca_global_token(x, w, cfg)
        x_aug = Tensor._wrap(np.concatenate([w.global_token.array, x.array], axis=0))
        mask = attention.global_token_mask(t, left, right)
        want = attention.attend_with_mask(x_aug, w, cfg, mask).array[1:]
        np.testing.assert_allclose(got.array, want, rtol=1e-5, atol=1e-6)

    def test_global_token_opens_an_information_path(self):
        # same weights with and without the GT column: outputs must differ
        cfg_gt, w_gt = make(left=2, right=2, gt=True, seed=3)
        cfg, _ = make(left=2, right=2, gt=False, seed=3)
        w_plain = attention.AttentionWeights(
            w_q=w_gt.w_q, w_k=w_gt.w_k, w_v=w_gt.w_v, w_o=w_gt.w_o,
            b_q=w_gt.b_q, b_k=w_gt.b_k, b_v=w_gt.b_v, b_o=w_gt.b_o,
        )
        x = rand_x(64, cfg.model_dim, seed=9)
        with_gt = attention.lca_global_token(x, w_gt, cfg_gt).array
        without = attention.lca_chunked(x, w_plain, cfg).array
        assert np.abs(with_gt - without).max() > 1e-4
