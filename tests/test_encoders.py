"""Encoder family tests: shapes, parameter formulas, residual identity, SE."""

import hashlib

import numpy as np
import pytest

from lfab import encoders, frontend, tensor
from lfab.attention import AttentionConfig
from lfab.cli import PRESETS, build_model, resolve_run_config
from lfab.encoders import EncoderConfig
from lfab.errors import ConfigError, ShapeError
from lfab.tensor import Tensor


def feats(t, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal((t, 80)).astype(np.float32) * 0.5)


def toy_cfg(family, **kw):
    if family == "conv_only":
        base = dict(model_dim=64, channels=64, num_blocks=8)
    elif family in ("conv_se", "conv_se_citrinet"):
        base = dict(model_dim=64, channels=32, num_blocks=8)
        if family == "conv_se_citrinet":
            base["kernel_sizes"] = (5, 3, 7, 5, 9, 5, 7, 3)
    else:
        gt = family == "conformer_lca_gt"
        base = dict(
            model_dim=64, channels=64, num_blocks=4,
            attention=AttentionConfig(4, 16, 16, 16, use_global_token=gt),
        )
    base.update(kw)
    return EncoderConfig(family=family, **base)


ALL_FAMILIES = list(encoders.FAMILIES)


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            EncoderConfig(family="transformer")

    def test_conv_only_kernel_pinned_to_7(self):
        cfg = toy_cfg("conv_only")
        assert cfg.kernel_size == 7
        assert {s.k for s in encoders.conv_schedule(cfg)} == {7}
        with pytest.raises(TypeError, match="kernel_size"):
            toy_cfg("conv_only", kernel_size=7)

    def test_conv_se_kernel_pinned_to_5(self):
        cfg = toy_cfg("conv_se")
        assert cfg.kernel_size == 5
        assert {s.k for s in encoders.conv_schedule(cfg)} == {5}
        # citrinet's blocks take their own list; its prologue keeps 5
        cfg = toy_cfg("conv_se_citrinet")
        assert cfg.kernel_size == 5
        assert [s.k for s in encoders.conv_schedule(cfg)] == [5, *cfg.kernel_sizes]

    def test_conformer_conv_kernel_defaults_to_9(self):
        for family in ("conformer_full", "conformer_lca", "conformer_lca_gt"):
            m = encoders.build(toy_cfg(family), seed=0)
            assert m.config.kernel_size == 9
            assert {s.k for s in encoders.conv_schedule(m.config)} == {9}
            assert {blk.conv.w_dw.shape[1] for blk in m.blocks} == {9}

    def test_citrinet_requires_kernel_list_of_right_length(self):
        with pytest.raises(ConfigError, match="kernel list"):
            toy_cfg("conv_se_citrinet", kernel_sizes=None)
        with pytest.raises(ConfigError, match="kernel list length"):
            toy_cfg("conv_se_citrinet", kernel_sizes=(5, 5))

    def test_conformer_needs_matching_attention_dim(self):
        with pytest.raises(ConfigError, match="model_dim"):
            toy_cfg("conformer_full", attention=AttentionConfig(4, 8))

    def test_gt_flag_must_match_family(self):
        with pytest.raises(ConfigError, match="use_global_token"):
            toy_cfg("conformer_lca", attention=AttentionConfig(4, 16, use_global_token=True))

    def test_blocks_divisible_by_segments(self):
        with pytest.raises(ConfigError, match="divisible"):
            toy_cfg("conv_se", num_blocks=6)

    def test_downsample_rates(self):
        assert toy_cfg("conv_only").downsample_rate == 4
        for fam in ("conv_se", "conv_se_citrinet", "conformer_full", "conformer_lca"):
            assert toy_cfg(fam).downsample_rate == 8


class TestShapes:
    def test_conv_only_400_to_100(self):
        m = encoders.build(toy_cfg("conv_only"), seed=0)
        assert encoders.encode(m, feats(400)).shape == (100, 64)

    @pytest.mark.parametrize("family", ["conv_se", "conv_se_citrinet", "conformer_full"])
    def test_8x_families_800_to_100(self, family):
        m = encoders.build(toy_cfg(family), seed=0)
        assert encoders.encode(m, feats(800)).shape == (100, 64)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_downsample_contract_over_length_sweep(self, family):
        m = encoders.build(toy_cfg(family), seed=1)
        ds = m.config.downsample_rate
        for t in range(ds, 160, 13):
            out = encoders.encode(m, feats(t, seed=t))
            lo, hi = t // ds - 1, -(-t // ds) + 1
            assert lo <= out.shape[0] <= hi, (family, t, out.shape)
            assert out.shape[1] == 64

    def test_too_short_input(self):
        m = encoders.build(toy_cfg("conv_only"), seed=0)
        with pytest.raises(ShapeError, match="input too short"):
            encoders.encode(m, feats(3))

    def test_wrong_feature_dim(self):
        m = encoders.build(toy_cfg("conv_only"), seed=0)
        with pytest.raises(ShapeError):
            encoders.encode(m, Tensor(np.zeros((50, 40), dtype=np.float32)))


# Each preset's separable conv layers as runs of (count, c_in, c_out, K,
# stride, output frames at T = 1001), written out from the layouts the
# encoders follow: conv-only (QuartzNet) two stride-2 prologue layers, then
# stride-1 blocks; conv+SE (ContextNet) widths c, 2c, 4c, 8c after a K = 5
# prologue, stride 2 on the last block of segments 1-3; Citrinet one width,
# stride 2 on the first block of segments 2-4; Conformers three stride-2,
# K = 9 subsampling layers.
SCHEDULE_T = 1001
PINNED_SCHEDULES = {
    "toy-quartznet2": [(1, 80, 64, 7, 2, 501), (1, 64, 64, 7, 2, 251), (8, 64, 64, 7, 1, 251)],
    "toy-contextnet": [
        (1, 80, 32, 5, 1, 1001), (1, 32, 32, 5, 1, 1001), (1, 32, 32, 5, 2, 501),
        (1, 32, 64, 5, 1, 501), (1, 64, 64, 5, 2, 251),
        (1, 64, 128, 5, 1, 251), (1, 128, 128, 5, 2, 126),
        (1, 128, 256, 5, 1, 126), (1, 256, 256, 5, 1, 126),
    ],
    "toy-citrinet": [
        (1, 80, 32, 5, 1, 1001), (1, 32, 32, 5, 1, 1001), (1, 32, 32, 3, 1, 1001),
        (1, 32, 32, 7, 2, 501), (1, 32, 32, 5, 1, 501),
        (1, 32, 32, 9, 2, 251), (1, 32, 32, 5, 1, 251),
        (1, 32, 32, 7, 2, 126), (1, 32, 32, 3, 1, 126),
    ],
    "toy-conformer": [(1, 80, 64, 9, 2, 501), (1, 64, 64, 9, 2, 251), (1, 64, 64, 9, 2, 126)],
    "toy-fastconformer": [(1, 80, 64, 9, 2, 501), (1, 64, 64, 9, 2, 251), (1, 64, 64, 9, 2, 126)],
    "toy-fastconformer-gt": [(1, 80, 64, 9, 2, 501), (1, 64, 64, 9, 2, 251),
                             (1, 64, 64, 9, 2, 126)],
    "table2-quartznet2": [(1, 80, 1024, 7, 2, 501), (1, 1024, 1024, 7, 2, 251),
                          (112, 1024, 1024, 7, 1, 251)],
    "table2-contextnet": [
        (1, 80, 592, 5, 1, 1001), (3, 592, 592, 5, 1, 1001), (1, 592, 592, 5, 2, 501),
        (1, 592, 1184, 5, 1, 501), (2, 1184, 1184, 5, 1, 501), (1, 1184, 1184, 5, 2, 251),
        (1, 1184, 2368, 5, 1, 251), (2, 2368, 2368, 5, 1, 251), (1, 2368, 2368, 5, 2, 126),
        (1, 2368, 4736, 5, 1, 126), (3, 4736, 4736, 5, 1, 126),
    ],
    "table2-conformer": [(1, 80, 512, 9, 2, 501), (1, 512, 512, 9, 2, 251),
                         (1, 512, 512, 9, 2, 126)],
    "table2-fastconformer": [(1, 80, 512, 9, 2, 501), (1, 512, 512, 9, 2, 251),
                             (1, 512, 512, 9, 2, 126)],
}


def expand_runs(runs):
    return [row for count, *row in runs for _ in range(count)]


class TestConvSchedule:
    """conv_schedule of every preset, and the frames each layer emits, pinned:
    a stride moved within a segment changes neither parameter counts nor the
    total downsampling, so only a per-layer pin sees it."""

    def test_presets_are_all_pinned(self):
        assert sorted(PINNED_SCHEDULES) == sorted(PRESETS)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_schedule_and_frames_match_pin(self, preset, monkeypatch):
        cfg = resolve_run_config(preset).encoder
        want = expand_runs(PINNED_SCHEDULES[preset])
        got, t = [], SCHEDULE_T
        for s in encoders.conv_schedule(cfg):
            t = -(-t // s.stride)
            got.append([s.c_in, s.c_out, s.k, s.stride, t])
        assert got == want
        if not preset.startswith("toy-"):
            return
        # the frames the forward pass really emits, layer by layer
        frames = []
        real = tensor.depthwise_separable_conv1d

        def spy(*args, **kwargs):
            y = real(*args, **kwargs)
            frames.append(y.shape[1])
            return y

        monkeypatch.setattr(tensor, "depthwise_separable_conv1d", spy)
        model = encoders.build(cfg, seed=0)
        encoders.encode(model, feats(SCHEDULE_T))
        assert frames == [row[-1] for row in want]


# (preset, seconds) -> sha256 of the encode output bytes and the Tensor peak
# of that encode, for the seed-1 model on log_mel(synth_audio(seconds,
# seed=3)). 2 s fits in one toy LCA chunk, 30 s spans one block of chunks
# and 240 s (the toy LCA presets only) four blocks, so both attention paths
# and the chunked path's block boundaries are pinned. The peak pins the buffer accounting: a view
# used past the Tensor that owns its buffer reads as a lower peak. Taken
# with numpy 2.4.6 on OpenBLAS 0.3.31.
PINNED_ENCODER_OUTPUTS = {
    ("toy-citrinet", 2): ("3b240856833ce14370d527f3777f1cfcee24e334614c65b9d867399a607a9667", 114048),
    ("toy-citrinet", 30): ("8daa111eb077ba96df383e8540d0e3b34600f2f704afdb572e6db8b0739f66ae", 1726848),
    ("toy-conformer", 2): ("6598cc2cfda9270ed0c8b3a2c20fbaaa14ceb55abc8e53bb6af01c85fc7fd6bb", 114048),
    ("toy-conformer", 30): ("8699779fb803723109388b122b513b53fe8c4307a86a1e9cd041067d654e9e80", 5364000),
    ("toy-contextnet", 2): ("4fa29b39d121bfdad6563cd36d0a37a80a71ee9d231f6e6b30a1fb46df9da537", 114048),
    ("toy-contextnet", 30): ("a25994e2389f39d279ca4d804a93b6805aef133ab7391848598bd03d01d20513", 1726848),
    ("toy-fastconformer", 2): ("eda6644bf66a7b522802bd268cba0335c257c9a44081223ac7bec876076c0b1c", 114048),
    ("toy-fastconformer", 30): ("3af7c4ec6575677af1b3de5dafe4cd2c63bd5001b0c9838a0013a723059bf3e0", 1777920),
    ("toy-fastconformer", 240): ("19c98ee40008cb32cc14b392796e0cb0a6e543ab81c903c6321884e9fb8996cd", 13822848),
    ("toy-fastconformer-gt", 2): ("2fd7018dcde52a50c9c964d1c8cafa634c58bfb6bf8ad14e1821e8191a2c9480", 114048),
    ("toy-fastconformer-gt", 30): ("f340ddb81ee7db70821a4aa977ba65e429713e7874d92d0803883a7c2394c522", 1793792),
    ("toy-fastconformer-gt", 240): ("138fbbc4d49c26b9fccc63351f475a19f1df30d0031b393ca805e73dce0631d0", 13822848),
    ("toy-quartznet2", 2): ("778981de06c0a34faa44f65ca60ce24b8468365de2da4499d2703f758fa6972c", 114048),
    ("toy-quartznet2", 30): ("ac50b74486ee89585c0cd4e918a45f2c61efd3517d311cf9754f0679c3e6b689", 1726848),
}


@pytest.fixture(scope="module")
def synth_feats():
    return {d: frontend.log_mel(frontend.synth_audio(d, seed=3)).frames for d in (2, 30, 240)}


class TestPinnedEncoderOutputs:
    def test_pins_cover_every_toy_preset(self):
        assert {p for p, _ in PINNED_ENCODER_OUTPUTS} == {p for p in PRESETS if p.startswith("toy-")}

    @pytest.mark.parametrize("preset, seconds", sorted(PINNED_ENCODER_OUTPUTS))
    def test_output_hash_and_peak(self, preset, seconds, synth_feats):
        model = build_model(resolve_run_config(preset), seed=1)
        with tensor.AllocationTracker() as tracker:
            out = encoders.encode(model, synth_feats[seconds])
        digest = hashlib.sha256(out.array.tobytes()).hexdigest()
        assert (digest, tracker.peak_bytes) == PINNED_ENCODER_OUTPUTS[preset, seconds]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("preset, seconds", sorted(PINNED_ENCODER_OUTPUTS))
    def test_pins_hold_at_other_worker_counts(self, preset, seconds, workers, synth_feats,
                                              monkeypatch):
        # one worker runs every kernel whole; three split it unevenly
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        self.test_output_hash_and_peak(preset, seconds, synth_feats)


class TestDeterminismAndBounds:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_same_seed_bitwise_identical(self, family):
        a = encoders.build(toy_cfg(family), seed=7)
        b = encoders.build(toy_cfg(family), seed=7)
        assert list(a.weights) == list(b.weights)
        for name in a.weights:
            np.testing.assert_array_equal(a.weights[name].array, b.weights[name].array)
        x = feats(256)
        np.testing.assert_array_equal(encoders.encode(a, x).array, encoders.encode(b, x).array)

    def test_different_seed_differs(self):
        a = encoders.build(toy_cfg("conv_only"), seed=1)
        b = encoders.build(toy_cfg("conv_only"), seed=2)
        assert not np.array_equal(a.weights["block.0.dw"].array, b.weights["block.0.dw"].array)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_long_input_stays_bounded(self, family):
        m = encoders.build(toy_cfg(family), seed=3)
        out = encoders.encode(m, feats(1600, seed=4)).array
        assert np.isfinite(out).all()
        assert np.abs(out).max() < 1e3


def ctc_head_param_count(d, vocab_size):
    return (vocab_size + 1) * d + (vocab_size + 1)


def rnnt_head_param_count(d, vocab_size, embed, hidden, joint):
    n = vocab_size * embed  # token embedding (no blank row)
    n += 4 * hidden * embed + 4 * hidden * hidden + 4 * hidden  # LSTM cell
    n += joint * d + joint * hidden + joint + (vocab_size + 1) * joint  # joint
    return n


class TestParameterCounts:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_built_count_matches_closed_form(self, family):
        cfg = toy_cfg(family)
        m = encoders.build(cfg, seed=0)
        assert m.parameter_count == encoders.expected_parameter_count(cfg)

    def test_separable_vs_dense_ratio(self):
        k, c = 7, 64
        assert tensor.separable_param_count(c, c, k) / (k * c * c) == pytest.approx(
            (k * c + c * c) / (k * c * c)
        )

    def test_stride_placement_does_not_change_count(self):
        # citrinet layout vs conv_se-style stride placement over identical
        # (c_in, c_out, K) block triples: counts are stride-independent
        cfg = toy_cfg("conv_se_citrinet", kernel_sizes=(5,) * 8)
        m = encoders.build(cfg, seed=0)
        per_seg = cfg.num_blocks // 4
        total = encoders._conv_block_params(80, cfg.channels, 5, False)
        for i in range(cfg.num_blocks):
            total += encoders._conv_block_params(cfg.channels, cfg.channels, 5, True)
        total += cfg.model_dim * cfg.channels
        assert m.parameter_count == total
        assert per_seg == 2

    def test_attach_heads_delta(self):
        m = encoders.build(toy_cfg("conv_only"), seed=0)
        base = m.parameter_count
        encoders.attach_heads(m)
        ctc = ctc_head_param_count(64, 28)
        assert ctc == 29 * 64 + 29
        rnnt = rnnt_head_param_count(64, 28, 64, 64, 64)
        assert m.parameter_count - base == ctc + rnnt


class TestResidualIdentity:
    def zero(self, t):
        return Tensor.zeros(t.shape)

    def test_conv_block_zero_weights_is_identity(self):
        m = encoders.build(toy_cfg("conv_only"), seed=0)
        blk = m.conv_stack[2]  # first residual block
        assert blk.residual
        blk.w_dw, blk.w_pw = self.zero(blk.w_dw), self.zero(blk.w_pw)
        x = Tensor(np.random.default_rng(0).standard_normal((64, 40)).astype(np.float32))
        np.testing.assert_array_equal(encoders._conv_block_forward(x, blk).array, x.array)

    def test_se_block_zero_conv_weights_is_identity(self):
        m = encoders.build(toy_cfg("conv_se"), seed=0)
        blk = next(b for b in m.conv_stack[1:] if getattr(b, "residual", False))
        blk.w_dw, blk.w_pw = self.zero(blk.w_dw), self.zero(blk.w_pw)
        c = blk.w_pw.shape[0]
        x = Tensor(np.random.default_rng(1).standard_normal((c, 24)).astype(np.float32))
        np.testing.assert_array_equal(encoders._conv_block_forward(x, blk).array, x.array)

    def test_conformer_block_zero_weights_is_identity(self):
        cfg = toy_cfg("conformer_lca")
        m = encoders.build(cfg, seed=0)
        blk = m.blocks[1]
        for ff in (blk.ff1, blk.ff2):
            ff.w1, ff.b1, ff.w2, ff.b2 = map(self.zero, (ff.w1, ff.b1, ff.w2, ff.b2))
        blk.att.w_o, blk.att.b_o = self.zero(blk.att.w_o), self.zero(blk.att.b_o)
        blk.conv.w_pw2 = self.zero(blk.conv.w_pw2)
        x = Tensor(np.random.default_rng(2).standard_normal((50, 64)).astype(np.float32))
        got = encoders.conformer_block_forward(x, blk, cfg)
        np.testing.assert_array_equal(got.array, x.array)


class TestSqueezeExcitation:
    def test_zero_weights_gate_is_half(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((8, 20)).astype(np.float32))
        out = encoders.se_module(x, Tensor.zeros((2, 8)), Tensor.zeros((8, 2)))
        np.testing.assert_allclose(out.array, 0.5 * x.array, rtol=1e-6)

    def test_gains_shrink_channels_uniformly_over_time(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 30)).astype(np.float32)
        w1 = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        w2 = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
        out = encoders.se_module(Tensor(x), w1, w2).array
        gains = out / x
        np.testing.assert_allclose(gains, np.broadcast_to(gains[:, :1], gains.shape), rtol=1e-4)
        assert (gains > 0).all() and (gains < 1).all()

    def test_network_with_zeroed_se_equals_half_gain_network(self, monkeypatch):
        cfg = toy_cfg("conv_se")
        m = encoders.build(cfg, seed=6)
        for blk in m.conv_stack:
            if getattr(blk, "se", None) is not None:
                blk.se.w1 = Tensor.zeros(blk.se.w1.shape)
                blk.se.w2 = Tensor.zeros(blk.se.w2.shape)
        x = feats(160, seed=8)
        zeroed = encoders.encode(m, x).array
        monkeypatch.setattr(
            encoders, "se_module",
            lambda t, w1, w2: tensor.scale_channels(
                t, Tensor(np.full(t.shape[0], 0.5, dtype=np.float32))
            ),
        )
        half_gain = encoders.encode(m, x).array
        np.testing.assert_array_equal(zeroed, half_gain)


class TestPositionalEncoding:
    def test_first_row_alternates_zero_one(self):
        pe = encoders.sinusoidal_positions(4, 6).array
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-7)

    def test_values_bounded(self):
        pe = encoders.sinusoidal_positions(500, 64).array
        assert np.abs(pe).max() <= 1.0


class TestConformerVariants:
    def test_lca_matches_full_when_window_covers_input(self):
        # 256 input frames -> 32 encoder frames; window 64/64 covers all
        full = encoders.build(
            toy_cfg("conformer_full", attention=AttentionConfig(4, 16, 64, 64)), seed=11
        )
        lca = encoders.build(
            toy_cfg("conformer_lca", attention=AttentionConfig(4, 16, 64, 64)), seed=11
        )
        x = feats(256, seed=12)
        np.testing.assert_allclose(
            encoders.encode(full, x).array, encoders.encode(lca, x).array,
            rtol=1e-4, atol=1e-5,
        )

    def test_gt_family_runs_and_differs_from_plain_lca(self):
        gt = encoders.build(toy_cfg("conformer_lca_gt"), seed=13)
        plain = encoders.build(toy_cfg("conformer_lca"), seed=13)
        x = feats(512, seed=14)
        a = encoders.encode(gt, x)
        b = encoders.encode(plain, x)
        assert a.shape == b.shape
        assert np.abs(a.array - b.array).max() > 1e-4

    def test_conv_module_peak_counts_the_glu_input(self):
        # the GLU reads views of the (2D, T) pointwise output, which stays
        # counted until the module returns: with the GLU output, the depthwise
        # output, the second pointwise output and its transpose, 6 times the
        # input's bytes. A view kept past its owner would read 4.
        m = encoders.build(toy_cfg("conformer_full", num_blocks=1), seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((100, 64)).astype(np.float32))
        with tensor.AllocationTracker() as tr:
            encoders._conv_module_forward(x, m.blocks[0].conv)
        assert tr.peak_bytes == 6 * x.nbytes
