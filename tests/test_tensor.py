"""Tensor substrate tests: brute-force conv oracle, shape laws, accounting."""

import ctypes
import glob
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest

from lfab import encoders, tensor
from lfab.cli import PRESETS, resolve_run_config
from lfab.errors import NumericDomainError, ShapeError
from lfab.tensor import Tensor


# a worker count above one on any machine; on fewer CPUs the pool's
# threads take the parts in turn
N_WORKERS = max(2, tensor._WORKERS)


def same_pad(k):
    left = (k - 1) // 2
    return left, k - 1 - left


def conv1d_oracle(x, w, stride=1, groups=1):
    """Direct triple-loop "same" convolution in float64. Independent of the impl."""
    c_in, t = x.shape
    c_out, c_in_g, k = w.shape
    pl, pr = same_pad(k)
    xp = np.zeros((c_in, t + pl + pr), dtype=np.float64)
    xp[:, pl : pl + t] = x
    t_out = (t + pl + pr - k) // stride + 1
    out = np.zeros((c_out, t_out), dtype=np.float64)
    og = c_out // groups
    for o in range(c_out):
        g = o // og
        for j in range(t_out):
            acc = 0.0
            for ci in range(c_in_g):
                for tap in range(k):
                    acc += w[o, ci, tap] * xp[g * c_in_g + ci, j * stride + tap]
            out[o, j] = acc
    return out


def conv1d_reference(x, w, stride=1, groups=1):
    """The per-tap padded float64 loop conv1d used before tiling: the exact
    bits the fast paths must keep."""
    c_in, t = x.shape
    c_out, c_in_g, k = w.shape
    pl, pr = same_pad(k)
    t_out = (t + pl + pr - k) // stride + 1
    xp = np.zeros((c_in, t + pl + pr), dtype=np.float64)
    xp[:, pl : pl + t] = x
    w64 = w.astype(np.float64)
    out = np.zeros((c_out, t_out), dtype=np.float64)
    last = 1 + stride * (t_out - 1)
    if c_in_g == 1 and groups == c_in and c_out == c_in:
        for tap in range(k):
            out += w64[:, 0, tap : tap + 1] * xp[:, tap : tap + last : stride]
    else:
        og = c_out // groups
        for g in range(groups):
            xg = xp[g * c_in_g : (g + 1) * c_in_g]
            for tap in range(k):
                out[g * og : (g + 1) * og] += (
                    w64[g * og : (g + 1) * og, :, tap] @ xg[:, tap : tap + last : stride]
                )
    return out.astype(np.float32)


def signed_zero_input(rng, shape):
    """float32 normals with whole zero columns and scattered -0.0 entries."""
    x = rng.standard_normal(shape).astype(np.float32)
    x[:, rng.random(shape[1]) < 0.2] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def depthwise(x, w, stride):
    """Depthwise "same" conv of float32 x by a (C, 1, K) weight: conv1d at
    stride 1; at stride 2 the kernel the separable conv runs."""
    if stride == 1:
        return tensor.conv1d(Tensor(x), Tensor(w)).array
    out = np.empty((x.shape[0], (x.shape[1] - 1) // stride + 1), dtype=np.float32)
    tensor._depthwise_conv1d(x, w[:, 0].astype(np.float64), stride, out)
    return out


def assert_conv_bits(x, w, stride=1):
    """A depthwise (C, 1, K) weight, or a pointwise (C_out, C, 1) weight run
    as matmul, against the reference loop, byte for byte."""
    if w.shape[1] == 1 and w.shape[0] == x.shape[0]:
        got = depthwise(x, w, stride)
        want = conv1d_reference(x, w, stride=stride, groups=x.shape[0])
    else:
        got = tensor.matmul(Tensor(w[:, :, 0]), Tensor(x)).array
        want = conv1d_reference(x, w)
    assert got.tobytes() == want.tobytes()


def softmax_reference(x, mask=None):
    """softmax_rows before it worked in place: -inf where masked, then
    out-of-place max subtraction, exp and division."""
    x64 = x.astype(np.float64)
    if mask is not None:
        x64 = np.where(np.broadcast_to(mask, x64.shape), x64, -np.inf)
    e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


def layer_norm_reference(x, gamma, beta, eps=1e-5):
    """layer_norm before it worked in place."""
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = np.square(x64 - mu).mean(axis=1, keepdims=True)
    y = (x64 - mu) / np.sqrt(var + eps)
    y = y * gamma.astype(np.float64) + beta.astype(np.float64)
    return y.astype(np.float32)


def record_tiles(monkeypatch):
    """Spy on tensor._tiles: a list that collects (rows, cols, tiles) per call."""
    calls = []
    real = tensor._tiles

    def spy(rows, cols, per):
        tiles = list(real(rows, cols, per))
        calls.append((rows, cols, tiles))
        return iter(tiles)

    monkeypatch.setattr(tensor, "_tiles", spy)
    return calls


def tile_kinds(calls):
    """Which tile geometries the recorded calls used."""
    kinds = set()
    for rows, cols, tiles in calls:
        blocks = [r1 - r0 for r0, r1, c0, c1 in tiles if c1 - c0 == cols]
        if len(blocks) < len(tiles):
            kinds.add("row segments")
        if len(blocks) > 1 and blocks[-1] < blocks[0]:
            kinds.add("partial last block")
        if len(blocks) > 1 and blocks[0] == 1:
            kinds.add("one-row blocks")
    return kinds


class TestConv1dBitExact:
    """Fast conv paths against the padded reference loop, byte for byte."""

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("tile_slots", [1, 3, 64, None])
    def test_depthwise(self, monkeypatch, k, stride, tile_slots):
        # TILE_BYTES of tile_slots float64s. 1 and 3 cut every row into
        # segments; 64 gives, as T grows, blocks of several whole rows, a
        # partial last block, one-row blocks, and rows longer than a tile;
        # None keeps the default, one block of all rows
        c = 7
        if tile_slots is not None:
            monkeypatch.setattr(tensor, "TILE_BYTES", 8 * tile_slots)
        calls = record_tiles(monkeypatch)
        rng = np.random.default_rng(100 + k)
        for t in (1, 2, k - 1, k, 2 * k + 1, 16, 37, 200):
            x = signed_zero_input(rng, (c, t))
            w = rng.standard_normal((c, 1, k)).astype(np.float32)
            w[0, 0, :] = -0.0
            w[1, 0, ::2] = 0.0
            assert_conv_bits(x, w, stride=stride)
        kinds = tile_kinds(calls)
        if tile_slots is None:
            assert "row segments" not in kinds
        else:
            assert "row segments" in kinds
        if tile_slots == 64:
            assert {"partial last block", "one-row blocks"} <= kinds

    def test_depthwise_long_input_spans_many_tiles(self):
        rng = np.random.default_rng(5)
        x = signed_zero_input(rng, (64, 3001))
        w = rng.standard_normal((64, 1, 9)).astype(np.float32)
        for stride in (1, 2):
            assert_conv_bits(x, w, stride=stride)

    @pytest.mark.parametrize("k, c", [(9, 1), (9, 3), (5, 3)])
    def test_t_shorter_than_k_same_padding(self, k, c):
        rng = np.random.default_rng(k)
        for t in (1, 2, k - 1):
            x = signed_zero_input(rng, (c, t))
            w = rng.standard_normal((c, 1, k)).astype(np.float32)
            assert_conv_bits(x, w, stride=1)
            assert_conv_bits(x, w, stride=2)

    def test_stride_2_odd_t(self):
        rng = np.random.default_rng(2)
        for t in (7, 31, 101):
            x = signed_zero_input(rng, (4, t))
            for k in (3, 4, 5):
                assert_conv_bits(x, rng.standard_normal((4, 1, k)).astype(np.float32), stride=2)

    def test_pointwise(self):
        rng = np.random.default_rng(9)
        for c_in, c_out, t in ((1, 1, 1), (5, 3, 17), (64, 128, 300)):
            x = signed_zero_input(rng, (c_in, t))
            w = rng.standard_normal((c_out, c_in, 1)).astype(np.float32)
            assert_conv_bits(x, w)
        # all-zero input columns under negative weights: every product is
        # -0.0, and the zero-initialised sum of the reference is +0.0
        x = np.zeros((16, 40), dtype=np.float32)
        x[:, 20:] = rng.standard_normal((16, 20))
        w = -np.abs(rng.standard_normal((8, 16, 1))).astype(np.float32)
        assert_conv_bits(x, w)


class TestConv1d:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            c_in = int(rng.integers(1, 9))
            t = int(rng.integers(1, 40))
            x = rng.standard_normal((c_in, t))
            if rng.random() < 0.5:  # depthwise
                k = int(rng.integers(1, 10))
                w = rng.standard_normal((c_in, 1, k))
                stride = int(rng.choice([1, 2]))
                want = conv1d_oracle(x, w, stride, groups=c_in)
                if stride == 1:
                    got = tensor.conv1d(Tensor(x), Tensor(w)).array
                else:
                    got = depthwise(x.astype(np.float32), w.astype(np.float32), stride)
            else:  # pointwise, which runs as matmul
                w = rng.standard_normal((int(rng.integers(1, 9)), c_in, 1))
                want = conv1d_oracle(x, w)
                got = tensor.matmul(Tensor(w[:, :, 0]), Tensor(x)).array
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-5)

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("stride", [1, 2])
    def test_output_length_formula(self, k, stride):
        # exhaustive over T in 1..32: "same" padding gives ceil(T / stride)
        # columns, at stride 1 through conv1d and at stride 2 through the
        # separable conv, the only strided conv
        pl, pr = same_pad(k)
        for t in range(1, 33):
            x = Tensor(np.ones((2, t)))
            if stride == 1:
                out = tensor.conv1d(x, Tensor(np.ones((2, 1, k))))
            else:
                out = tensor.depthwise_separable_conv1d(
                    x, Tensor(np.ones((2, k))), Tensor(np.ones((3, 2))), stride=stride)
            want = (t + pl + pr - k) // stride + 1
            assert want == -(-t // stride)
            assert out.shape[1] == want

    def test_same_padding_keeps_length_at_stride_1(self):
        for k in range(1, 10):
            out = tensor.conv1d(Tensor(np.ones((1, 17))), Tensor(np.ones((1, 1, k))))
            assert out.shape == (1, 17)

    def test_same_padding_split_is_floor_left_ceil_right(self):
        # K=4 on a one-hot input: left pad 1, right pad 2 shifts the kernel
        # footprint so out[j] = sum_{tap} w[tap] * x[j - 1 + tap]
        x = np.zeros((1, 6))
        x[0, 0] = 1.0
        w = np.arange(1.0, 5.0).reshape(1, 1, 4)
        out = tensor.conv1d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.array[0], [2.0, 1.0, 0, 0, 0, 0])

    def test_dimension_errors_name_the_axis(self):
        x = Tensor(np.ones((5, 8)))
        with pytest.raises(ShapeError, match="rank 3"):
            tensor.conv1d(x, Tensor(np.ones((5, 3))))
        with pytest.raises(ShapeError, match="rank 2"):
            tensor.conv1d(Tensor(np.ones(8)), Tensor(np.ones((5, 1, 3))))
        for w in ((4, 1, 3), (8, 1, 3), (6, 4, 3)):
            with pytest.raises(ShapeError, match="channels axis: input has 5"):
                tensor.conv1d(x, Tensor(np.ones(w)))

    def test_dense_and_grouped_weights_rejected(self):
        # only the depthwise shape runs; a dense, grouped or pointwise kernel
        # is refused, not computed by a slower path
        x = Tensor(np.ones((4, 10)))
        for w in ((4, 4, 3), (4, 2, 3), (4, 4, 1)):
            with pytest.raises(ShapeError, match="depthwise only: weight axis 1"):
                tensor.conv1d(x, Tensor(np.ones(w)))

    def test_purity_and_repeatability(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 20)).astype(np.float32)
        w = rng.standard_normal((3, 1, 7)).astype(np.float32)
        xt, wt = Tensor(x), Tensor(w)
        a = tensor.conv1d(xt, wt)
        b = tensor.conv1d(xt, wt)
        np.testing.assert_array_equal(a.array, b.array)
        np.testing.assert_array_equal(xt.array, x)
        np.testing.assert_array_equal(wt.array, w)


class TestSeparableConv:
    def test_equals_manual_two_stage_composition(self):
        rng = np.random.default_rng(11)
        for stride in (1, 2):
            x = rng.standard_normal((6, 24))
            w_dw = rng.standard_normal((6, 7))
            w_pw = rng.standard_normal((9, 6))
            got = tensor.depthwise_separable_conv1d(
                Tensor(x), Tensor(w_dw), Tensor(w_pw), stride=stride
            )
            stage1 = conv1d_oracle(x, w_dw.reshape(6, 1, 7), stride=stride, groups=6)
            stage2 = conv1d_oracle(stage1, w_pw.reshape(9, 6, 1))
            np.testing.assert_allclose(got.array, stage2, rtol=1e-5, atol=1e-5)

    def test_bits_match_two_conv1d_calls(self):
        # the old composition: a float32 depthwise output, then the pointwise conv
        rng = np.random.default_rng(13)
        for c, c_out, k, t in ((6, 9, 7, 1), (6, 9, 7, 24), (64, 64, 5, 3001), (1, 3, 3, 5)):
            x = signed_zero_input(rng, (c, t))
            w_dw = rng.standard_normal((c, k)).astype(np.float32)
            w_pw = rng.standard_normal((c_out, c)).astype(np.float32)
            w_pw[0] = -np.abs(w_pw[0])
            for stride in (1, 2):
                y = conv1d_reference(x, w_dw.reshape(c, 1, k), stride=stride, groups=c)
                want = conv1d_reference(y, w_pw.reshape(c_out, c, 1))
                got = tensor.depthwise_separable_conv1d(
                    Tensor(x), Tensor(w_dw), Tensor(w_pw), stride=stride)
                assert got.array.tobytes() == want.tobytes()

    def test_conv1d_errors_kept(self):
        x = Tensor(np.ones((4, 2)))
        w_dw, w_pw = Tensor(np.ones((4, 9))), Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="stride must be >= 1"):
            tensor.depthwise_separable_conv1d(x, w_dw, w_pw, stride=0)
        with pytest.raises(ShapeError, match="rank 2"):
            tensor.depthwise_separable_conv1d(Tensor(np.ones(4)), w_dw, w_pw)
        # "same" padding fits any T >= 1, even under a longer kernel
        assert tensor.depthwise_separable_conv1d(x, w_dw, w_pw, stride=2).shape == (3, 1)

    def test_param_count_formula(self):
        # K=7, C=C'=64: dense kernel 28672 params vs separable 4544
        assert 7 * 64 * 64 == 28672
        assert tensor.separable_param_count(64, 64, 7) == 4544
        assert tensor.separable_param_count(64, 64, 7) == 7 * 64 + 64 * 64

    def test_channel_mismatch_errors(self):
        x = Tensor(np.ones((4, 10)))
        with pytest.raises(ShapeError, match="channels axis"):
            tensor.depthwise_separable_conv1d(x, Tensor(np.ones((5, 3))), Tensor(np.ones((2, 5))))
        with pytest.raises(ShapeError, match="channels axis"):
            tensor.depthwise_separable_conv1d(x, Tensor(np.ones((4, 3))), Tensor(np.ones((2, 5))))


def record_blocks(monkeypatch):
    """Spy on tensor._depthwise_conv1d: a list of (first column, width) of
    each column block the separable conv computes."""
    calls = []
    real = tensor._depthwise_conv1d

    def spy(xa, w64, stride, out, j_off=0):
        calls.append((j_off, out.shape[1]))
        real(xa, w64, stride, out, j_off)

    monkeypatch.setattr(tensor, "_depthwise_conv1d", spy)
    return calls


class TestSeparableColumnBlocks:
    """The separable conv makes its output in column blocks of at most
    _BLOCK_COLS columns and _GEMM_BLOCK_BYTES of float64 depthwise output,
    the bytes patched small here: at exact multiples of a block, one
    column over, and at widths that leave a remainder under MIN_GEMM_ROWS,
    every column keeps the bits of the unblocked conv (the whole depthwise
    output, then one whole product)."""

    @pytest.mark.parametrize("workers", [1, N_WORKERS])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", range(3, 10))
    @pytest.mark.parametrize("cols", [40, tensor.MIN_GEMM_ROWS])
    def test_block_edges_match_unblocked(self, monkeypatch, workers, stride, k, cols):
        c, c_out = 8, 24
        rng = np.random.default_rng(100 * k + 10 * stride + cols)
        w_dw = rng.standard_normal((c, k)).astype(np.float32)
        w_pw = rng.standard_normal((c_out, c)).astype(np.float32)
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        monkeypatch.setattr(tensor, "_GEMM_BLOCK_BYTES", 8 * c * cols)
        blocks = record_blocks(monkeypatch)
        m = tensor.MIN_GEMM_ROWS
        for t_out in (1, m - 1, cols, cols + 1, 2 * cols, 2 * cols + 1, 3 * cols + m - 1,
                      4 * cols + m, 5 * cols - 1):
            x = signed_zero_input(rng, (c, stride * (t_out - 1) + 1))
            y64 = conv1d_reference(x, w_dw[:, None, :], stride, groups=c).astype(np.float64)
            blocks.clear()
            got = tensor.depthwise_separable_conv1d(Tensor(x), Tensor(w_dw), Tensor(w_pw), stride)
            assert got.array.tobytes() == gemm_reference(w_pw, y64).tobytes(), t_out
            # the blocks tile the output, each at least MIN_GEMM_ROWS wide
            # (or the whole output) and at most a block unless that would
            # leave one narrower
            assert [j for j, _ in sorted(blocks)] == list(
                np.cumsum([0] + [w for _, w in sorted(blocks)])[:-1])
            assert sum(w for _, w in blocks) == t_out
            assert all(m <= w or w == t_out for _, w in blocks)
            assert all(w <= cols or w < 2 * m for _, w in blocks)
            if t_out >= 2 * cols:
                assert len(blocks) >= 2

    def test_parts_share_one_output_under_thread_switches(self, monkeypatch):
        # more workers than cores and a short switch interval: the parts
        # race to make the shared output, and a part that made its own
        # would leave its columns out of the result
        monkeypatch.setattr(tensor, "_WORKERS", 6)
        monkeypatch.setattr(tensor, "_GEMM_BLOCK_BYTES", 8 * 8 * 16)
        rng = np.random.default_rng(73)
        x = signed_zero_input(rng, (8, 500))
        w_dw = rng.standard_normal((8, 5)).astype(np.float32)
        w_pw = rng.standard_normal((12, 8)).astype(np.float32)
        y64 = conv1d_reference(x, w_dw[:, None, :], 1, groups=8).astype(np.float64)
        want = gemm_reference(w_pw, y64).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got = tensor.depthwise_separable_conv1d(Tensor(x), Tensor(w_dw), Tensor(w_pw))
                assert got.array.tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    def test_table2_shapes_are_one_block_and_long_inputs_are_not(self):
        # every separable layer of the table2 presets at 30 s of audio runs
        # as one block, so no wide weight is cast twice in a call, while
        # the toy presets' first layers at 240 s take several
        def widths(prefix, seconds):
            for name in PRESETS:
                if name.startswith(prefix):
                    t = (seconds * 16000 - 400) // 160 + 1
                    for s in encoders.conv_schedule(resolve_run_config(name).encoder):
                        t = (t - 1) // s.stride + 1
                        yield name, s, t

        for name, s, t in widths("table2-", 30):
            assert t <= tensor._block_cols(s.c_in), (name, s.name, t)
        for name, s, t in widths("toy-", 240):
            if s.c_in == 80:
                assert t > tensor._block_cols(s.c_in), (name, s.name, t)


class TestNorms:
    def test_batch_norm_bits_match_out_of_place_formula(self):
        rng = np.random.default_rng(31)
        x = signed_zero_input(rng, (8, 257)) * np.float32(40.0)
        gamma, beta, mean = (rng.standard_normal(8).astype(np.float32) for _ in range(3))
        beta[0] = -0.0
        var = np.abs(rng.standard_normal(8)).astype(np.float32)
        y = (x - mean.astype(np.float64)[:, None]) / np.sqrt(var.astype(np.float64) + 1e-5)[:, None]
        y = gamma.astype(np.float64)[:, None] * y + beta.astype(np.float64)[:, None]
        got = tensor.batch_norm_infer(Tensor(x), *map(Tensor, (gamma, beta, mean, var)))
        assert got.array.tobytes() == y.astype(np.float32).tobytes()

    def test_batch_norm_known_values(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        y = tensor.batch_norm_infer(
            x, Tensor([2.0]), Tensor([1.0]), Tensor([2.0]), Tensor([4.0]), eps=0.0
        )
        np.testing.assert_allclose(y.array, [[0.0, 1.0, 2.0]], atol=1e-7)

    def test_batch_norm_identity_params(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 9))
        ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
        y = tensor.batch_norm_infer(Tensor(x), ones, zeros, zeros, ones, eps=0.0)
        np.testing.assert_allclose(y.array, x, rtol=1e-6, atol=1e-6)

    def test_batch_norm_rejects_nonpositive_variance(self):
        x = Tensor(np.ones((1, 4)))
        one, zero = Tensor(np.ones(1)), Tensor(np.zeros(1))
        with pytest.raises(NumericDomainError):
            tensor.batch_norm_infer(x, one, zero, zero, Tensor([-2.0]), eps=1e-5)

    def test_layer_norm_bits_match_out_of_place_formula(self):
        rng = np.random.default_rng(19)
        for rows, d in ((1, 2), (7, 64), (300, 80)):
            x = signed_zero_input(rng, (rows, d)) * np.float32(30.0)
            x[0] = 3.0  # a constant row
            gamma, beta = (rng.standard_normal(d).astype(np.float32) for _ in range(2))
            beta[0] = -0.0
            for eps in (1e-5, 1e-12):
                got = tensor.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=eps)
                want = layer_norm_reference(x, gamma, beta, eps)
                assert got.array.tobytes() == want.tobytes()

    def test_layer_norm_symmetric_row(self):
        y = tensor.layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(y.array, [[-1.0, 1.0]], atol=1e-5)

    def test_layer_norm_constant_row_is_zero(self):
        y = tensor.layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(y.array, np.zeros((1, 3)))

    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 64)) * 3 + 1
        y = tensor.layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64)), eps=1e-12)
        np.testing.assert_allclose(y.array.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.array.var(axis=1), 1.0, atol=1e-4)


class TestElementwise:
    def test_relu(self):
        y = tensor.relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(y.array, [[0.0, 0.0, 2.0]])

    def test_sigmoid_midpoint_and_bounds(self):
        y = tensor.sigmoid(Tensor([[0.0, 30.0, -30.0]]))
        assert y.array[0, 0] == 0.5
        assert 0.0 < float(y.array[0, 2]) < 1e-9
        assert 1.0 - 1e-6 < float(y.array[0, 1]) <= 1.0

    def test_sigmoid_bits_match_out_of_place_formula(self):
        rng = np.random.default_rng(29)
        x = signed_zero_input(rng, (16, 513)) * np.float32(20.0)
        x64 = x.astype(np.float64)
        want = (1.0 / (1.0 + np.exp(-x64))).astype(np.float32)
        assert tensor.sigmoid(Tensor(x)).array.tobytes() == want.tobytes()

    def test_silu_recomposition_exact(self):
        rng = np.random.default_rng(23)
        x = Tensor(signed_zero_input(rng, (16, 513)) * np.float32(20.0))
        want = tensor.mul(x, tensor.sigmoid(x)).array
        assert tensor.silu(x).array.tobytes() == want.tobytes()



def batch_norm_reference(x, gamma, beta, mean, var, eps=1e-5):
    """batch_norm_infer as an out-of-place formula."""
    y = (x - mean.astype(np.float64)[:, None]) / np.sqrt(var.astype(np.float64) + eps)[:, None]
    return (gamma.astype(np.float64)[:, None] * y + beta.astype(np.float64)[:, None]).astype(np.float32)


def sigmoid_reference(x):
    return (1.0 / (1.0 + np.exp(-x.astype(np.float64)))).astype(np.float32)


def mean_over_time_reference(x):
    return x.astype(np.float64).mean(axis=1).astype(np.float32)


class TestTiledKernels:
    """The tiled norm, activation and mean kernels against their formulas,
    byte for byte, over several tiles and a partial one, and over rows
    longer than a tile."""

    @pytest.mark.parametrize("tile_slots", [200, None])
    @pytest.mark.parametrize("shape", [(1, 1), (9, 23), (13, 57), (3, 1000), (2, 70001)])
    def test_bits_match_formulas(self, monkeypatch, tile_slots, shape):
        if tile_slots is not None:
            monkeypatch.setattr(tensor, "TILE_BYTES", 8 * tile_slots)
        calls = record_tiles(monkeypatch)
        rng = np.random.default_rng(sum(shape))
        c, t = shape
        x = signed_zero_input(rng, shape) * np.float32(rng.choice([1.0, 20.0]))
        x[0, : t // 2] = -0.0
        gamma, beta, mean = (rng.standard_normal(c).astype(np.float32) for _ in range(3))
        beta[0] = -0.0
        var = np.abs(rng.standard_normal(c)).astype(np.float32)
        xt = Tensor(x)
        got = tensor.batch_norm_infer(xt, *map(Tensor, (gamma, beta, mean, var)))
        assert got.array.tobytes() == batch_norm_reference(x, gamma, beta, mean, var).tobytes()
        sig = sigmoid_reference(x)
        assert tensor.sigmoid(xt).array.tobytes() == sig.tobytes()
        assert tensor.silu(xt).array.tobytes() == (x * sig).tobytes()
        assert tensor.mean_over_time(xt).array.tobytes() == mean_over_time_reference(x).tobytes()
        # layer norm over (rows, features) of the same shape
        g, b = (rng.standard_normal(t).astype(np.float32) for _ in range(2))
        got = tensor.layer_norm(xt, Tensor(g), Tensor(b))
        assert got.array.tobytes() == layer_norm_reference(x, g, b).tobytes()
        if tile_slots is not None and shape in ((9, 23), (13, 57)):
            assert {"partial last block"} <= tile_kinds(calls)
        if t > (tile_slots or tensor.TILE_BYTES // 8):
            assert "row segments" in tile_kinds(calls)

    @pytest.mark.parametrize("shape", [(13, 57), (3, 1000), (2, 70001)])
    def test_bits_match_formulas_at_three_workers(self, monkeypatch, shape):
        monkeypatch.setattr(tensor, "_WORKERS", 3)
        calls = record_parts(monkeypatch)
        self.test_bits_match_formulas(monkeypatch, 200, shape)
        assert max(len(parts) for _, parts in calls) == 3

    def test_mean_of_long_rows_keeps_numpy_pairwise_tree(self, monkeypatch):
        # rows of lengths around the pairwise split points, summed in runs
        # that fit a tile, against numpy's one-pass row sums. Each row holds
        # pairs of huge values of opposite sign among small ones, so which
        # small values a huge partial sum swallows depends on the summation
        # tree, and a different tree shows even after rounding to float32.
        rng = np.random.default_rng(53)
        for t in (129, 200, 201, 256, 257, 1000, 1027, 4099):
            x = rng.standard_normal((3, t)).astype(np.float32)
            for row in x:
                idx = rng.permutation(t)[: 2 * (t // 16)].reshape(2, -1)
                big = np.float32(10.0) ** rng.uniform(15, 30, idx.shape[1]).astype(np.float32)
                row[idx[0]], row[idx[1]] = big, -big
            for tile_slots in (200, 128, 8):
                monkeypatch.setattr(tensor, "TILE_BYTES", 8 * tile_slots)
                got = tensor.mean_over_time(Tensor(x)).array
                assert got.tobytes() == mean_over_time_reference(x).tobytes()


def heap_peak_over_output(fn, *args):
    """tracemalloc heap peak of fn(*args) above the heap at entry, minus the
    bytes of its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


class TestTiledScratchBound:
    """No tiled kernel builds a full-size float64 temporary: its heap peak is
    its output plus a few tiles per worker, however long the time axis. Each
    worker's part has scratch of its own, so N workers hold N times the
    scratch of one."""

    @pytest.mark.parametrize("shape", [(64, 60000), (4736, 375)])
    def test_heap_peak_is_output_plus_tiles(self, shape, monkeypatch):
        monkeypatch.setattr(tensor, "_WORKERS", 1)
        self.check_tiled_kernels(shape, 1)

    @pytest.mark.parametrize("shape", [(64, 60000), (4736, 375)])
    def test_heap_peak_at_n_workers(self, shape, monkeypatch):
        monkeypatch.setattr(tensor, "_WORKERS", N_WORKERS)
        self.check_tiled_kernels(shape, N_WORKERS)

    @staticmethod
    def check_tiled_kernels(shape, workers):
        rng = np.random.default_rng(59)
        c, t = shape
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        chan = [Tensor(rng.random(c).astype(np.float32) + 0.5) for _ in range(4)]
        w_dw = Tensor(rng.standard_normal((c, 1, 5)).astype(np.float32))
        x_rows = Tensor(rng.standard_normal((t, c)).astype(np.float32))
        feat = [Tensor(np.ones(c, dtype=np.float32)), Tensor(np.zeros(c, dtype=np.float32))]
        bound = workers * 6 * tensor.TILE_BYTES
        for name, fn, args in (
            ("conv1d", tensor.conv1d, (x, w_dw)),
            ("batch_norm_infer", tensor.batch_norm_infer, (x, *chan)),
            ("layer_norm", tensor.layer_norm, (x_rows, *feat)),
            ("sigmoid", tensor.sigmoid, (x,)),
            ("silu", tensor.silu, (x,)),
            ("mean_over_time", tensor.mean_over_time, (x,)),
        ):
            extra = heap_peak_over_output(fn, *args)
            assert extra <= bound, f"{name}: {extra} bytes of scratch over {bound}"

    def test_separable_conv_casts_its_weight_in_blocks(self, monkeypatch):
        # a (3072, 3072) pointwise weight is 72 MiB as float64, 4.5 blocks;
        # cast whole, it alone is over this 42 MiB bound
        monkeypatch.setattr(tensor, "_WORKERS", 1)
        self.check_separable_conv(1)

    def test_separable_conv_at_n_workers(self, monkeypatch):
        monkeypatch.setattr(tensor, "_WORKERS", N_WORKERS)
        self.check_separable_conv(N_WORKERS)

    @staticmethod
    def check_separable_conv(workers):
        rng = np.random.default_rng(61)
        c, t = 3072, 375
        x = Tensor(rng.standard_normal((c, t)).astype(np.float32))
        w_dw = Tensor(rng.standard_normal((c, 5)).astype(np.float32))
        w_pw = Tensor(rng.standard_normal((c, c)).astype(np.float32))
        extra = heap_peak_over_output(tensor.depthwise_separable_conv1d, x, w_dw, w_pw)
        # the parts share the cast blocks' budget; each has its own tiles
        bound = 8 * c * t + 2 * tensor._GEMM_BLOCK_BYTES + workers * 6 * tensor.TILE_BYTES
        assert extra <= bound, f"{extra} bytes of scratch over {bound}"

    @pytest.mark.parametrize("workers", [1, N_WORKERS])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("block_bytes", [None, 2**18])
    def test_separable_conv_holds_a_few_blocks(self, monkeypatch, workers, stride, block_bytes):
        # no (C, T') float64 copy of a long input: each worker holds one
        # column block of depthwise output and its float64 product (here
        # as wide as the block), plus its depthwise tiles, however long T is
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        if block_bytes is not None:
            monkeypatch.setattr(tensor, "_GEMM_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(67)
        c, t = 64, 60000
        x = Tensor(rng.standard_normal((c, t)).astype(np.float32))
        w_dw = Tensor(rng.standard_normal((c, 5)).astype(np.float32))
        w_pw = Tensor(rng.standard_normal((c, c)).astype(np.float32))
        extra = heap_peak_over_output(tensor.depthwise_separable_conv1d, x, w_dw, w_pw, stride)
        bound = workers * (2 * 8 * c * tensor._block_cols(c) + 6 * tensor.TILE_BYTES)
        assert extra <= bound, f"{extra} bytes of scratch over {bound}"

    @pytest.mark.parametrize("workers", [1, N_WORKERS])
    def test_chunked_attention_kernels_hold_a_few_tiles(self, monkeypatch, workers):
        # the chunked band's (H, chunks, cs, slots) scores at 600 s of the
        # toy LCA presets: softmax_rows and batched_matmul hold a few tiles
        # per worker, and the (1, chunks, cs, slots) mask is not copied to
        # the scores' shape
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        rng = np.random.default_rng(71)
        h, n, cs, slots, dh = 4, 188, 40, 73, 16
        scores = Tensor(rng.standard_normal((h, n, cs, slots)).astype(np.float32))
        band = np.arange(slots)[None, :] - np.arange(cs)[:, None]
        mask = np.broadcast_to((band >= 0) & (band <= 32), (n, cs, slots)).copy()
        q = Tensor(rng.standard_normal((h, n, cs, dh)).astype(np.float32))
        kw = Tensor(rng.standard_normal((h, n, dh, slots)).astype(np.float32))
        vw = Tensor(rng.standard_normal((h, n, slots, dh)).astype(np.float32))
        bound = workers * 6 * tensor.TILE_BYTES
        for name, fn, args in (
            ("softmax_rows", tensor.softmax_rows, (scores, mask[None])),
            ("softmax_rows unmasked", tensor.softmax_rows, (scores,)),
            ("batched_matmul scores", tensor.batched_matmul, (q, kw, 0.25)),
            ("batched_matmul context", tensor.batched_matmul, (scores, vw)),
        ):
            extra = heap_peak_over_output(fn, *args)
            assert extra <= bound, f"{name}: {extra} bytes of scratch over {bound}"


def separable_shapes():
    """(c_out, c_in, k, stride) of every separable conv layer of the presets."""
    return sorted({(s.c_out, s.c_in, s.k, s.stride) for name in PRESETS
                   for s in encoders.conv_schedule(resolve_run_config(name).encoder)})


def gemm_reference(w, x, b=None):
    """The whole dense product: W cast to float64 at once, one rounding."""
    out = w.astype(np.float64) @ x.astype(np.float64)
    if b is not None:
        out += b.astype(np.float64)
    return out.astype(np.float32)


class TestBlockedDenseProducts:
    """The dense products cast and multiply W one row block at a time; every
    split gives the bytes of the whole product. The block size is patched
    so each weight runs below, at and just over one block, and in several
    blocks."""

    @pytest.mark.parametrize("c_out, c_in, k, stride", separable_shapes())
    def test_preset_shapes_match_whole_product(self, monkeypatch, c_out, c_in, k, stride):
        rng = np.random.default_rng(c_out * c_in + k)
        w_dw = rng.standard_normal((c_in, k), dtype=np.float32)
        w_pw = rng.standard_normal((c_out, c_in), dtype=np.float32) / np.float32(np.sqrt(c_in))
        bias = rng.standard_normal(c_out, dtype=np.float32)
        t_dw, t_pw, t_bias = Tensor(w_dw), Tensor(w_pw), Tensor(bias)

        def check(name, want, call, steps):
            for step in steps:
                if step is not None:
                    monkeypatch.setattr(tensor, "_GEMM_BLOCK_BYTES", 8 * c_in * step)
                assert call().array.tobytes() == want.tobytes(), (name, t_out, step)
                monkeypatch.undo()

        # every kernel below, at and just over one block, and in three
        # blocks; at T' = 375 the separable conv alone, as the presets run
        # it and just over one block, which keeps the run time short
        for t_out in (1, 47, 375):
            steps = [None, c_out - 1]
            if t_out < 375:
                steps += [c_out + 1, c_out, max(1, c_out // 3)]
            x = signed_zero_input(rng, (c_in, stride * (t_out - 1) + 1))
            y64 = np.zeros((c_in, t_out), dtype=np.float64)
            tensor._depthwise_conv1d(x, w_dw.astype(np.float64), stride, y64)
            check("separable", gemm_reference(w_pw, y64),
                  lambda: tensor.depthwise_separable_conv1d(Tensor(x), t_dw, t_pw, stride), steps)
            if t_out < 375:
                rows = signed_zero_input(rng, (t_out, c_in))
                check("matmul", gemm_reference(w_pw, rows.T),
                      lambda: tensor.matmul(t_pw, Tensor(rows.T)), steps)
                check("linear_rows", gemm_reference(rows, w_pw.T, bias),
                      lambda: tensor.linear_rows(Tensor(rows), t_pw, t_bias), steps)

    def test_row_longer_than_a_block(self, monkeypatch):
        # one row of W is 8 KiB of float64 against a 1 KiB block: a block is one row
        monkeypatch.setattr(tensor, "_GEMM_BLOCK_BYTES", 2**10)
        rng = np.random.default_rng(67)
        w = rng.standard_normal((7, 1024)).astype(np.float32)
        x = rng.standard_normal((1024, 5)).astype(np.float32)
        b = rng.standard_normal(7).astype(np.float32)
        assert [r1 - r0 for r0, r1 in tensor._row_blocks(0, *w.shape)] == [1] * 7
        assert tensor.matmul(Tensor(w), Tensor(x)).array.tobytes() == gemm_reference(w, x).tobytes()
        got = tensor.linear_rows(Tensor(x.T), Tensor(w), Tensor(b))
        assert got.array.tobytes() == gemm_reference(x.T, w.T, b).tobytes()


def record_parts(monkeypatch):
    """Spy on tensor._parts: a list that collects (min_size, parts) per call."""
    calls = []
    real = tensor._parts

    def spy(n, min_size):
        parts = real(n, min_size)
        calls.append((min_size, parts))
        return parts

    monkeypatch.setattr(tensor, "_parts", spy)
    return calls


class TestSplitProducts:
    """The threads' parts of a dense product give the whole product's
    bytes: at parts of exactly MIN_GEMM_ROWS rows or columns, and at odd
    sizes. No part of a product is under MIN_GEMM_ROWS."""

    @pytest.mark.parametrize("workers, n, sizes", [
        (2, 32, [16, 16]), (3, 48, [16, 16, 16]), (2, 33, [16, 17]),
        (3, 47, [23, 24]), (3, 101, [33, 34, 34]), (2, 31, [31]), (1, 1000, [1000]),
    ])
    def test_parts_tile_the_range(self, monkeypatch, workers, n, sizes):
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        parts = tensor._parts(n, tensor.MIN_GEMM_ROWS)
        assert [hi - lo for lo, hi in parts] == sizes
        assert [lo for lo, _ in parts] == [0] + [hi for _, hi in parts[:-1]]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("size", [32, 33, 48, 61, 100])
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_products_match_whole(self, monkeypatch, workers, size, block_rows):
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        rng = np.random.default_rng(size * workers)
        k = 37 + size % 7
        if block_rows is not None:
            monkeypatch.setattr(tensor, "_GEMM_BLOCK_BYTES", 8 * k * block_rows)
        calls = record_parts(monkeypatch)
        narrow = 9 if size < 48 else 16  # the unsplit side under or at the minimum
        # _gemm along W's rows, then along x's columns
        for m, n in ((size, narrow), (narrow, size)):
            w = signed_zero_input(rng, (m, k))
            x = signed_zero_input(rng, (k, n))
            got = tensor.matmul(Tensor(w), Tensor(x)).array
            assert got.tobytes() == gemm_reference(w, x).tobytes(), (m, n)
        # linear_rows along its weight's rows
        x = signed_zero_input(rng, (23, k))
        w = signed_zero_input(rng, (size, k))
        b = rng.standard_normal(size).astype(np.float32)
        got = tensor.linear_rows(Tensor(x), Tensor(w), Tensor(b)).array
        assert got.tobytes() == gemm_reference(x, w.T, b).tobytes()
        splits = [parts for min_size, parts in calls if min_size == tensor.MIN_GEMM_ROWS]
        assert len(splits) == 3
        assert all(len(parts) == min(workers, size // tensor.MIN_GEMM_ROWS) for parts in splits)
        assert min(hi - lo for parts in splits for lo, hi in parts) >= tensor.MIN_GEMM_ROWS

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("lead", [(2,), (3,), (7,), (4, 5), (1,)])
    def test_batched_matmul_matches_whole(self, monkeypatch, workers, lead):
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        # four tiles hold one entry's float64 a, b and product, so each
        # entry is a block of its own
        monkeypatch.setattr(tensor, "TILE_BYTES", 8 * (19 * 8 + 8 * 23 + 19 * 23) // 4)
        rng = np.random.default_rng(sum(lead) + workers)
        a = signed_zero_input(rng, (int(np.prod(lead)) * 19, 8)).reshape(*lead, 19, 8)
        b = signed_zero_input(rng, (int(np.prod(lead)) * 8, 23)).reshape(*lead, 8, 23)
        calls = record_parts(monkeypatch)
        for scale in (1.0, 1.0 / np.sqrt(8.0)):
            got = tensor.batched_matmul(Tensor(a), Tensor(b), scale=scale).array
            want = a.astype(np.float64) @ b.astype(np.float64)
            if scale != 1.0:
                want *= scale
            assert got.tobytes() == want.astype(np.float32).tobytes()
        assert [len(parts) for _, parts in calls] == [min(workers, int(np.prod(lead)))] * 2

    def test_part_error_raised_after_every_part(self, monkeypatch):
        monkeypatch.setattr(tensor, "_WORKERS", 3)
        done = []

        def fn(lo, hi):
            if lo == 1:
                raise RuntimeError("part 1")
            done.append(lo)

        with pytest.raises(RuntimeError, match="part 1"):
            tensor._split(fn, 3)
        assert sorted(done) == [0, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits_on_its_own_threads(self, monkeypatch):
        # a child forked after a split has the parent's pool object but none
        # of its threads; a split there must not wait on them forever
        monkeypatch.setattr(tensor, "_WORKERS", N_WORKERS)
        rng = np.random.default_rng(29)
        x = Tensor(rng.standard_normal((23, 40)).astype(np.float32))
        w = Tensor(rng.standard_normal((tensor.MIN_GEMM_ROWS * N_WORKERS, 40))
                   .astype(np.float32))
        calls = record_parts(monkeypatch)
        want = tensor.linear_rows(x, w).array.tobytes()
        assert [len(parts) for _, parts in calls] == [N_WORKERS]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(tensor.linear_rows(x, w).array.tobytes() != want)
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split did not finish in 60 s")
        assert os.waitstatus_to_exitcode(status) == 0


class TestBlasThreads:
    """lfab holds numpy's OpenBLAS at one thread, so no BLAS worker spins
    after its calls and takes a core from lfab's own threads."""

    @staticmethod
    def openblas_threads():
        """numpy's OpenBLAS thread-count getter, or None."""
        for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                           "numpy.libs", "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return getter
        return None

    def test_no_cpu_burned_after_encode(self):
        threads = self.openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS that reports its threads")
        model = encoders.build(resolve_run_config("toy-conformer").encoder, seed=1)
        rng = np.random.default_rng(71)
        encoders.encode(model, Tensor(rng.standard_normal((1200, 80)).astype(np.float32)))
        t0 = time.process_time()
        time.sleep(0.3)
        burned = time.process_time() - t0
        assert threads() == 1
        assert burned < 0.02, f"{burned:.3f} s of CPU burned while asleep"

    def test_missing_setter_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(tensor, "_OPENBLAS_SETTERS", ("no_such_symbol",))
        tensor._hold_blas_at_one_thread()


class TestMatmulSoftmax:
    def test_matmul_known(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(tensor.matmul(a, b).array, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_inner_axis_error(self):
        with pytest.raises(ShapeError, match="inner axis"):
            tensor.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_batched_matmul_matches_loop(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 2))
        got = tensor.batched_matmul(Tensor(a), Tensor(b))
        for h in range(3):
            np.testing.assert_allclose(got.array[h], a[h] @ b[h], rtol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(37)
        y = tensor.softmax_rows(Tensor(rng.standard_normal((8, 12)) * 10))
        np.testing.assert_allclose(y.array.sum(axis=1), 1.0, atol=1e-6)
        assert (y.array >= 0).all()

    def test_softmax_uniform_row(self):
        y = tensor.softmax_rows(Tensor(np.full((1, 4), 2.5)))
        np.testing.assert_allclose(y.array, 0.25, atol=1e-7)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = tensor.softmax_rows(Tensor(x))
        b = tensor.softmax_rows(Tensor(x + 1000.0))
        np.testing.assert_allclose(a.array, b.array, atol=1e-7)

    def test_masked_softmax_zeroes_masked_positions(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]))
        mask = np.array([[True, False, True]])
        y = tensor.softmax_rows(x, mask)
        assert y.array[0, 1] == 0.0
        np.testing.assert_allclose(y.array.sum(), 1.0, atol=1e-7)

    def test_all_true_mask_bitwise_equals_no_mask(self):
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((6, 9)))
        a = tensor.softmax_rows(x)
        b = tensor.softmax_rows(x, np.ones((6, 9), dtype=bool))
        np.testing.assert_array_equal(a.array, b.array)

    def test_unmasked_bits_match_reference(self):
        rng = np.random.default_rng(43)
        for shape in ((1, 1), (8, 12), (4, 50, 50), (2, 3, 17, 40)):
            x = (rng.standard_normal(shape) * rng.choice([0.1, 8.0, 200.0])).astype(np.float32)
            got = tensor.softmax_rows(Tensor(x))
            assert got.array.tobytes() == softmax_reference(x).tobytes()

    @pytest.mark.parametrize("t, left, right", [(10, 2, 3), (40, 16, 16), (33, 0, 0)])
    def test_band_and_global_token_masks_bits_match_reference(self, t, left, right):
        from lfab.attention import band_mask, global_token_mask

        rng = np.random.default_rng(t)
        for mask in (band_mask(t, left, right), global_token_mask(t, left, right)):
            n = mask.shape[0]
            # scores far above the row max in masked slots: exp of them
            # would overflow if masked slots were not zeroed first
            x = (rng.standard_normal((4, n, n)) * 5).astype(np.float32)
            x[:, ~mask] += np.float32(2000.0)
            got = tensor.softmax_rows(Tensor(x), mask[None])
            assert got.array.tobytes() == softmax_reference(x, mask[None]).tobytes()

    def test_chunked_mask_shapes_bits_match_reference(self):
        # the chunked band engine's (1, chunks, cs, slots) mask, with and
        # without the global-token column, and a mask broadcast along rows
        rng = np.random.default_rng(47)
        n, cs, win = 5, 8, 24
        band = np.arange(win)[None, :] - np.arange(cs)[:, None]
        mask = np.broadcast_to((band >= 0) & (band <= 16), (n, cs, win)).copy()
        mask[0, :, :8] = False
        mask[-1, 5:, :] = False
        mask[-1, 5:, 0] = True
        gt = np.concatenate([mask, np.ones((n, cs, 1), dtype=bool)], axis=2)
        gt[-1, 5:, -1] = False
        for m in (mask, gt, mask[:1, :1]):
            x = (rng.standard_normal((4, n, cs, m.shape[-1])) * 9).astype(np.float32)
            got = tensor.softmax_rows(Tensor(x), m[None])
            assert got.array.tobytes() == softmax_reference(x, m[None]).tobytes()

    @pytest.mark.parametrize("workers", [1, N_WORKERS])
    @pytest.mark.parametrize("per", [73, 15 * 73, 2 * 40 * 73 - 1, 3 * 40 * 73,
                                     5 * 40 * 73 + 1, 10**9])
    def test_softmax_blocks_match_reference(self, monkeypatch, workers, per):
        # blocks of one row, of partial and whole chunks with remainders,
        # and one block; a mask broadcast over heads, over heads and
        # chunks, over rows, and none
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        monkeypatch.setattr(tensor, "TILE_BYTES", 8 * per // 2)
        rng = np.random.default_rng(per % 1000)
        h, n, cs, win = 3, 7, 40, 73
        band = np.arange(win)[None, :] - np.arange(cs)[:, None]
        mask = np.broadcast_to((band >= 0) & (band <= 32), (n, cs, win)).copy()
        mask[0, :, :16] = False
        mask[-1, 30:, :] = False
        mask[-1, 30:, 0] = True
        x = (rng.standard_normal((h, n, cs, win)) * 9).astype(np.float32)
        x[:, ~mask] += np.float32(2000.0)
        for m in (mask[None], mask[:1, :, :][None], mask[:1, :1], None):
            got = tensor.softmax_rows(Tensor(x), m)
            assert got.array.tobytes() == softmax_reference(x, m).tobytes()
        blocks = tensor._slabs(x.shape, per)
        covered = np.zeros(x.shape[:-1], dtype=int)
        for idx in blocks:
            covered[idx] += 1
            assert x[idx].size <= max(per, win)
        assert (covered == 1).all()

    @pytest.mark.parametrize("workers", [1, N_WORKERS])
    @pytest.mark.parametrize("per_block", [1, 2, 3, 1000])
    def test_batched_matmul_blocks_match_whole(self, monkeypatch, workers, per_block):
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        m, k, n = 40, 16, 73
        monkeypatch.setattr(tensor, "TILE_BYTES", per_block * 8 * (m * k + k * n + m * n) // 4)
        rng = np.random.default_rng(per_block)
        a = signed_zero_input(rng, (4 * 7 * m, k)).reshape(4, 7, m, k)
        b = signed_zero_input(rng, (4 * 7 * k, n)).reshape(4, 7, k, n)
        want = a.astype(np.float64) @ b.astype(np.float64)
        got = tensor.batched_matmul(Tensor(a), Tensor(b), scale=0.25).array
        assert got.tobytes() == (want * 0.25).astype(np.float32).tobytes()
        # and the (m, n) by (n, k) shape of attention's context product
        p = signed_zero_input(rng, (4 * 7 * m, n)).reshape(4, 7, m, n)
        v = signed_zero_input(rng, (4 * 7 * n, k)).reshape(4, 7, n, k)
        want = (p.astype(np.float64) @ v.astype(np.float64)).astype(np.float32)
        assert tensor.batched_matmul(Tensor(p), Tensor(v)).array.tobytes() == want.tobytes()

    def test_fully_masked_row_raises(self):
        x = Tensor(np.ones((2, 3)))
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(NumericDomainError, match="empty attention row"):
            tensor.softmax_rows(x, mask)

    def test_argmax_tie_takes_lowest_index(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]))
        assert tensor.argmax_rows(x)[0] == 1


class TestFiniteness:
    def test_random_op_chain_stays_finite(self):
        rng = np.random.default_rng(43)
        x = Tensor(rng.standard_normal((8, 30)))
        w_dw = Tensor(rng.standard_normal((8, 5)) * 0.3)
        w_pw = Tensor(rng.standard_normal((8, 8)) * 0.3)
        y = tensor.depthwise_separable_conv1d(x, w_dw, w_pw)
        y = tensor.silu(y)
        y = tensor.layer_norm(
            tensor.transpose(y), Tensor(np.ones(8)), Tensor(np.zeros(8))
        )
        y = tensor.softmax_rows(y)
        assert np.isfinite(y.array).all()

    def test_constructor_rejects_nonfinite(self):
        with pytest.raises(NumericDomainError):
            Tensor([np.inf, 1.0])


class TestAllocationAccounting:
    def test_single_allocation_high_water(self):
        with tensor.AllocationTracker() as tr:
            t = Tensor(np.zeros(1000))
            assert t.nbytes == 4000
        assert tr.peak_bytes >= 4000

    def test_sequential_alloc_free_peaks_at_one_buffer(self):
        def body():
            a = Tensor(np.zeros(50_000))
            del a
            b = Tensor(np.zeros(50_000))
            del b

        with tensor.AllocationTracker() as tr:
            body()
        assert 200_000 <= tr.peak_bytes < 200_000 + 8192  # one buffer, small slack

    def test_views_do_not_double_count(self):
        base = Tensor(np.zeros((4, 6)))
        with tensor.AllocationTracker() as tr:
            v = Tensor._wrap(base.array.reshape(2, 12))
            assert v.shape == (2, 12)
        assert tr.peak_bytes == 0
