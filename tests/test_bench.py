"""Bench tests: RTF arithmetic, memory model, duration search, divergence."""

import gc
import tracemalloc

import numpy as np
import pytest

from lfab import attention, bench, cli, decoders, encoders, frontend, tensor
from lfab.attention import AttentionConfig
from lfab.bench import (
    CSV_HEADER,
    BenchReport,
    BenchSample,
    ctc_rnnt_divergence,
    find_max_duration,
    predict_peak_bytes,
    run_pipeline,
    sweep_rtf,
)
from lfab.encoders import FEATURE_DIM, EncoderConfig
from lfab.errors import ConfigError
from lfab.tensor import Tensor


def toy_cfg(family, win=16):
    if family == "conv_only":
        return EncoderConfig(family=family, model_dim=64, channels=64, num_blocks=8)
    if family in ("conv_se", "conv_se_citrinet"):
        kw = {"kernel_sizes": (5, 3, 7, 5, 9, 5, 7, 3)} if family == "conv_se_citrinet" else {}
        return EncoderConfig(family=family, model_dim=64, channels=32, num_blocks=8, **kw)
    gt = family == "conformer_lca_gt"
    att = AttentionConfig(4, 16, win, win, use_global_token=gt)
    return EncoderConfig(family=family, model_dim=64, channels=64, num_blocks=4, attention=att)


@pytest.fixture(scope="module")
def conv_model():
    return encoders.attach_heads(encoders.build(toy_cfg("conv_only"), seed=0))


class TestBenchSample:
    def test_rtf_recomputable(self):
        s = BenchSample(60.0, 6.0, 6.0 / 60.0, 1, 1, "ctc")
        assert s.rtf == s.wall_s / s.duration_s

    def test_inconsistent_rtf_rejected(self):
        with pytest.raises(ValueError, match="rtf"):
            BenchSample(60.0, 6.0, 0.11, 1, 1, "ctc")


class TestMeasureRtf:
    """One-duration sweeps: what each BenchSample of a sweep measures."""

    def test_fields_and_exact_arithmetic(self, conv_model):
        audio = frontend.synth_audio(4.0, seed=0)
        [s] = sweep_rtf(conv_model, "ctc", [4.0], seed=0, repeats=2).samples
        assert s.duration_s == 4.0
        assert s.rtf == s.wall_s / s.duration_s
        assert s.wall_s > 0 and s.measured_peak_bytes > 0
        assert s.decoder_kind == "ctc"
        assert min(s.frontend_s, s.encoder_s, s.decoder_s) > 0
        frames = frontend.num_frames_for(audio.samples.size)
        assert s.predicted_peak_bytes == predict_peak_bytes(conv_model.config, frames)

    def test_single_repeat_stages_sum_to_wall(self, conv_model):
        [s] = sweep_rtf(conv_model, "rnnt", [2.0], seed=1, repeats=1).samples
        assert s.frontend_s + s.encoder_s + s.decoder_s == s.wall_s

    def test_fastest_repeat_is_reported(self, conv_model, monkeypatch):
        scripted = iter([(0.3, 0.3, 0.3), (0.1, 0.1, 0.2), (0.2, 0.2, 0.2)])

        def run(model, decoder, audio):
            return None, dict(zip(bench.STAGES, next(scripted)))

        monkeypatch.setattr(bench, "run_pipeline", run)
        [s] = sweep_rtf(conv_model, "ctc", [1.0], seed=0, repeats=3).samples
        assert (s.frontend_s, s.encoder_s, s.decoder_s) == (0.1, 0.1, 0.2)
        assert s.wall_s == 0.1 + 0.1 + 0.2

    def test_decoded_text_deterministic_across_runs(self, conv_model):
        audio = frontend.synth_audio(2.0, seed=3)
        a, _ = run_pipeline(conv_model, "rnnt", audio)
        b, _ = run_pipeline(conv_model, "rnnt", audio)
        assert a.text == b.text and a.token_ids == b.token_ids

    def test_unknown_decoder(self, conv_model):
        with pytest.raises(ConfigError, match="decoder"):
            sweep_rtf(conv_model, "beam", [1.0], seed=0)

    def test_missing_head(self):
        bare = encoders.build(toy_cfg("conv_only"), seed=0)
        with pytest.raises(ConfigError, match="head"):
            sweep_rtf(bare, "ctc", [1.0], seed=0)

    def test_timed_sections_refuse_to_interleave(self, conv_model):
        with bench._timed_section():
            with pytest.raises(RuntimeError, match="interleave"):
                sweep_rtf(conv_model, "ctc", [1.0], seed=0, repeats=1)


class TestSweep:
    def test_rows_in_order_and_csv_header(self, conv_model):
        report = sweep_rtf(conv_model, "ctc", [2, 4, 6], seed=0, repeats=1)
        assert [s.duration_s for s in report.samples] == [2.0, 4.0, 6.0]
        text = report.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        names = lines[0].split(",")
        for line, s in zip(lines[1:], report.samples):
            cols = dict(zip(names, line.split(",")))
            assert float(cols["duration_s"]) == s.duration_s
            assert int(cols["predicted_peak_bytes"]) == s.predicted_peak_bytes
            assert cols["decoder"] == "ctc"
            for stage in ("frontend_s", "encoder_s", "decoder_s"):
                assert float(cols[stage]) == pytest.approx(getattr(s, stage), abs=1e-6)

    def test_repeats_run_in_rounds(self, conv_model, monkeypatch):
        order = []

        def run(model, decoder, audio):
            order.append(audio.duration_s)
            return None, dict.fromkeys(bench.STAGES, 0.1)

        monkeypatch.setattr(bench, "run_pipeline", run)
        sweep_rtf(conv_model, "ctc", [2, 4, 6], seed=0, repeats=2)
        assert order == [2.0, 4.0, 6.0, 2.0, 4.0, 6.0]

    def test_unsorted_durations_rejected(self, conv_model):
        with pytest.raises(ValueError, match="ascending"):
            sweep_rtf(conv_model, "ctc", [4, 2], seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            sweep_rtf(conv_model, "ctc", [], seed=0)

    def test_value_columns_identical_across_runs(self, conv_model):
        def values(report):
            return [
                (s.duration_s, s.predicted_peak_bytes, s.measured_peak_bytes, s.decoder_kind)
                for s in report.samples
            ]

        a = sweep_rtf(conv_model, "ctc", [2, 4], seed=5, repeats=1)
        b = sweep_rtf(conv_model, "ctc", [2, 4], seed=5, repeats=1)
        assert values(a) == values(b)


class TestMemoryModel:
    @pytest.mark.parametrize("family", encoders.FAMILIES)
    def test_monotone_in_frames(self, family):
        cfg = toy_cfg(family)
        preds = [predict_peak_bytes(cfg, t) for t in range(400, 6400, 97)]
        assert all(b >= a for a, b in zip(preds, preds[1:]))

    def test_full_attention_doubling_ratio_approaches_4(self):
        cfg = toy_cfg("conformer_full")
        r = predict_peak_bytes(cfg, 64000) / predict_peak_bytes(cfg, 32000)
        assert 3.4 <= r <= 4.2

    def test_lca_doubling_ratio_approaches_2(self):
        cfg = toy_cfg("conformer_lca")
        r = predict_peak_bytes(cfg, 64000) / predict_peak_bytes(cfg, 32000)
        assert 1.8 <= r <= 2.2

    @pytest.mark.parametrize("family", encoders.FAMILIES)
    def test_measured_within_2x_and_stable(self, family):
        cfg = toy_cfg(family)
        model = encoders.attach_heads(encoders.build(cfg, seed=0))
        ratios = []
        for d in (4, 8, 16):
            [s] = sweep_rtf(model, "ctc", [d], seed=1, repeats=1).samples
            ratios.append(s.measured_peak_bytes / s.predicted_peak_bytes)
        assert all(0.5 <= r <= 2.0 for r in ratios), ratios
        assert max(ratios) / min(ratios) <= 1.5, ratios

    @pytest.mark.parametrize("preset", sorted(p for p in cli.PRESETS if p.startswith("toy-")))
    def test_heap_peak_within_2x(self, preset):
        # the measured heap, kernel temporaries included, against the model;
        # the features are live during encode on both sides. At 30 s the
        # kernels' fixed scratch, which the model leaves out, is most of the
        # excess (up to 1.90 on the SE presets, at 2 workers); at 120 s no
        # kernel holds a whole-input float64 copy (up to 1.46, from 1.91)
        rc = cli.resolve_run_config(preset)
        model = encoders.build(rc.encoder, seed=0)
        for seconds, ratio in ((30, 1.95), (120, 1.5)):
            feats = frontend.log_mel(frontend.synth_audio(seconds, seed=1)).frames
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                encoders.encode(model, feats)
                heap = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            predicted = predict_peak_bytes(rc.encoder, feats.shape[0])
            assert heap + feats.nbytes <= ratio * predicted, (seconds, (heap + feats.nbytes) / predicted)


class TestFindMaxDuration:
    def test_search_contract(self):
        cfg = toy_cfg("conformer_full")
        budget = predict_peak_bytes(cfg, 60 * 16000 // 160)
        d = find_max_duration(cfg, budget)
        assert predict_peak_bytes(cfg, bench._frames_for_seconds(d)) <= budget
        assert predict_peak_bytes(cfg, bench._frames_for_seconds(d + 1)) > budget

    def test_budget_too_small(self):
        with pytest.raises(ValueError, match="budget too small"):
            find_max_duration(toy_cfg("conv_only"), 1000)

    def test_matches_linear_scan_on_50_random_pairs(self):
        rng = np.random.default_rng(0)
        families = list(encoders.FAMILIES)
        checked = 0
        while checked < 50:
            cfg = toy_cfg(families[int(rng.integers(len(families)))])
            budget = int(rng.integers(2_000_000, 40_000_000))
            floor = predict_peak_bytes(cfg, bench._frames_for_seconds(1))
            if budget <= floor:
                continue
            got = find_max_duration(cfg, budget)
            d = 1
            while predict_peak_bytes(cfg, bench._frames_for_seconds(d + 1)) <= budget:
                d += 1
            assert got == d, (cfg.family, budget)
            checked += 1

    def test_doubling_budget_full_attention_sqrt2_regime(self):
        cfg = toy_cfg("conformer_full")
        budget = predict_peak_bytes(cfg, bench._frames_for_seconds(600))
        factor = find_max_duration(cfg, 2 * budget) / find_max_duration(cfg, budget)
        assert 1.3 <= factor <= 1.5


# predict_peak_bytes is a bench CSV value column and find_max_duration is what
# max-length prints, so both are pinned per preset: a refactor of the layer
# description must not move a byte of either.
PINNED_FRAMES = (1, 9, 100, 801, 3001, 60000)
PINNED_PEAK_BYTES = {
    "table2-conformer": (28992, 60224, 404736, 3152192, 13184832, 1972800000),
    "table2-contextnet": (57152, 116544, 770816, 5996352, 22329152, 445440000),
    "table2-fastconformer": (28992, 60224, 404736, 3152192, 22329152, 362602496),
    "table2-quartznet2": (12608, 47936, 473600, 3797632, 14216832, 284160000),
    "toy-citrinet": (1088, 9792, 108800, 871488, 3265088, 65280000),
    "toy-conformer": (3904, 10048, 92800, 841312, 6446912, 1838400000),
    "toy-contextnet": (3392, 9792, 108800, 871488, 3265088, 65280000),
    "toy-fastconformer": (3904, 10048, 92800, 911680, 3225408, 62666752),
    "toy-fastconformer-gt": (3904, 10048, 92800, 915520, 3238208, 62907392),
    "toy-quartznet2": (1216, 8640, 92800, 743616, 2785216, 55680000),
}
PINNED_BUDGETS = (2**26, 2**30, 48 * 2**30)
PINNED_MAX_SECONDS = {
    "table2-conformer": (90, 435, 3181),
    "table2-contextnet": (90, 1446, 69422),
    "table2-fastconformer": (105, 1795, 86342),
    "table2-quartznet2": (141, 2267, 108825),
    "toy-citrinet": (616, 9868, 473709),
    "toy-conformer": (109, 457, 3204),
    "toy-contextnet": (616, 9868, 473709),
    "toy-fastconformer": (643, 10291, 494051),
    "toy-fastconformer-gt": (640, 10252, 492165),
    "toy-quartznet2": (723, 11570, 555383),
}


class TestPinnedMemoryModel:
    def test_pins_cover_every_preset(self):
        assert set(PINNED_PEAK_BYTES) == set(PINNED_MAX_SECONDS) == set(cli.PRESETS)

    @pytest.mark.parametrize("preset", sorted(PINNED_PEAK_BYTES))
    def test_predicted_peak_bytes(self, preset):
        cfg = cli.resolve_run_config(preset).encoder
        got = tuple(predict_peak_bytes(cfg, t) for t in PINNED_FRAMES)
        assert got == PINNED_PEAK_BYTES[preset]

    @pytest.mark.parametrize("preset", sorted(PINNED_MAX_SECONDS))
    def test_max_duration(self, preset):
        cfg = cli.resolve_run_config(preset).encoder
        got = tuple(find_max_duration(cfg, b) for b in PINNED_BUDGETS)
        assert got == PINNED_MAX_SECONDS[preset]


def full_scale_presets():
    return {
        "conv_only": EncoderConfig(
            family="conv_only", model_dim=1024, channels=1024, num_blocks=112
        ),
        "conv_se": EncoderConfig(
            family="conv_se", model_dim=512, channels=592, num_blocks=16
        ),
        "conformer_full": EncoderConfig(
            family="conformer_full", model_dim=512, channels=512, num_blocks=20,
            attention=AttentionConfig(4, 128),
        ),
        "conformer_lca": EncoderConfig(
            family="conformer_lca", model_dim=512, channels=512, num_blocks=18,
            attention=AttentionConfig(4, 128),
        ),
    }


class TestFullScaleOrdering:
    def test_max_duration_ordering_at_fixed_budget(self):
        budget = 48 * 2**30
        d = {k: find_max_duration(cfg, budget) for k, cfg in full_scale_presets().items()}
        assert d["conv_only"] > d["conformer_lca"] > d["conv_se"] > d["conformer_full"]
        assert d["conv_se"] >= 10 * d["conformer_full"]


# The phase walk predict_peak_bytes replaced, kept as written: the walk must
# match it on every config, not only on the pinned presets.
def _reference_peak_bytes(cfg, t_frames):
    def half(t):
        return (t - 1) // 2 + 1

    phases, x, t, c_in = [], FEATURE_DIM * t_frames, t_frames, FEATURE_DIM
    for s in encoders.conv_schedule(cfg):
        t_out = half(t) if s.stride == 2 else t
        phases.append(x + c_in * t_out + s.c_out * t_out)
        phases.append(x + 2 * s.c_out * t_out)
        x, c_in, t = s.c_out * t_out, s.c_out, t_out
    d = cfg.model_dim
    if cfg.family == "conv_only":
        phases.append(2 * x)
    elif cfg.family in ("conv_se", "conv_se_citrinet"):
        phases.append(x + t * d)
        x = t * d
        phases.append(2 * x)
    else:
        att = cfg.attention
        h, dh = att.num_heads, att.head_dim
        cs = attention.chunk_size(att)
        dense_t = None
        if cfg.family == "conformer_full":
            dense_t = t
        elif cfg.family == "conformer_lca_gt":
            if t + 1 <= cs:
                dense_t = t + 1
        elif t <= cs:
            dense_t = t
        if dense_t is not None:
            att_phase = 10 * t * d + 2 * h * dense_t * dense_t
        else:
            n = -(-t // cs)
            win = cs + att.left_context + att.right_context
            slots = win + (1 if cfg.family == "conformer_lca_gt" else 0)
            att_phase = (8 * t * d + 2 * n * cs * d + 2 * h * n * win * dh
                         + 2 * h * n * cs * slots)
        phases += [2 * x, x + t * d]
        x = t * d
        phases.append(3 * x)
        phases.append(max(t * (encoders.FF_EXPANSION * d + 5 * d), att_phase, 14 * t * d))
        phases.append(2 * x)
    phases.append(x + t * (decoders.default_vocab().size + 1))
    return 4 * (t_frames * FEATURE_DIM + max(phases))


def _random_config(rng):
    family = encoders.FAMILIES[int(rng.integers(len(encoders.FAMILIES)))]
    channels = int(rng.integers(1, 300))
    if family == "conv_only":
        return EncoderConfig(family=family, model_dim=channels, channels=channels,
                             num_blocks=int(rng.integers(1, 12)))
    if family in ("conv_se", "conv_se_citrinet"):
        blocks = 4 * int(rng.integers(1, 5))
        kernels = None
        if family == "conv_se_citrinet":
            kernels = tuple(int(k) for k in 2 * rng.integers(0, 12, size=blocks) + 1)
        return EncoderConfig(family=family, model_dim=int(rng.integers(1, 600)),
                             channels=channels, num_blocks=blocks, kernel_sizes=kernels)
    att = AttentionConfig(int(rng.integers(1, 9)), int(rng.integers(1, 65)),
                          int(rng.integers(0, 200)), int(rng.integers(0, 200)),
                          use_global_token=family == "conformer_lca_gt")
    return EncoderConfig(family=family, model_dim=att.model_dim, channels=channels,
                         num_blocks=int(rng.integers(1, 5)), attention=att)


class TestMemoryModelReference:
    def test_random_configs_match_the_phase_walk(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(600):
            cfg = _random_config(rng)
            seen.add(cfg.family)
            lengths = [1, 2, 7, 8, 9] + [int(t) for t in rng.integers(10, 20000, size=8)]
            if cfg.attention is not None:  # T' on either side of one chunk
                cs = attention.chunk_size(cfg.attention)
                lengths += [8 * t for t in (cs - 1, cs, cs + 1)]
            for t in lengths:
                assert predict_peak_bytes(cfg, t) == _reference_peak_bytes(cfg, t), (cfg, t)
        assert seen == set(encoders.FAMILIES)


JOINT_NAMES = ("head.rnnt.joint.w_e", "head.rnnt.joint.w_p", "head.rnnt.joint.b",
               "head.rnnt.joint.w_out")


class TestDivergence:
    def test_blank_forcing_gives_minimal_evals(self, conv_model):
        w = conv_model.weights
        keep = {n: w[n] for n in JOINT_NAMES}
        j = w["head.rnnt.joint.b"].shape[0]
        out = -np.ones((29, j), dtype=np.float32)
        out[28] = 1.0
        w["head.rnnt.joint.w_e"] = Tensor.zeros(w["head.rnnt.joint.w_e"].shape)
        w["head.rnnt.joint.w_p"] = Tensor.zeros(w["head.rnnt.joint.w_p"].shape)
        w["head.rnnt.joint.b"] = Tensor(np.ones(j, dtype=np.float32))
        w["head.rnnt.joint.w_out"] = Tensor(out)
        try:
            hyp, _ = run_pipeline(conv_model, "rnnt", frontend.synth_audio(2.0, seed=0))
            assert hyp.token_ids == []
            assert hyp.joint_evals == hyp.frames
        finally:
            w.update(keep)

    def test_emission_forcing_hits_cap(self, conv_model):
        w = conv_model.weights
        keep = {n: w[n] for n in JOINT_NAMES}
        j = w["head.rnnt.joint.b"].shape[0]
        out = -np.ones((29, j), dtype=np.float32)
        out[0] = 1.0
        w["head.rnnt.joint.w_e"] = Tensor.zeros(w["head.rnnt.joint.w_e"].shape)
        w["head.rnnt.joint.w_p"] = Tensor.zeros(w["head.rnnt.joint.w_p"].shape)
        w["head.rnnt.joint.b"] = Tensor(np.ones(j, dtype=np.float32))
        w["head.rnnt.joint.w_out"] = Tensor(out)
        try:
            hyp, _ = run_pipeline(conv_model, "rnnt", frontend.synth_audio(2.0, seed=0))
            cap = decoders.MAX_SYMBOLS_PER_FRAME
            assert len(hyp.token_ids) == cap * hyp.frames
            assert hyp.joint_evals == (cap + 1) * hyp.frames
        finally:
            w.update(keep)

    def test_rows_and_accounting(self, conv_model):
        rows = ctc_rnnt_divergence(conv_model, [2, 4], seed=0, repeats=1)
        assert len(rows) == 2
        for r in rows:
            assert r["joint_evals"] == r["t_prime"] + r["emissions"]
            assert r["ratio"] > 0

    def test_decode_ratio_grows_with_duration(self, conv_model):
        # the autoregressive decode pays per eval while the vectorised CTC
        # scan amortises its fixed cost, so the quotient widens with length
        rows = ctc_rnnt_divergence(conv_model, [5, 30], seed=0, repeats=3)
        assert rows[-1]["ratio"] > rows[0]["ratio"]
        for r in rows:
            assert r["decode_rnnt_s"] > r["decode_ctc_s"]
            assert r["wall_rnnt_s"] > r["wall_ctc_s"]

    def test_needs_both_heads(self):
        m = encoders.build(toy_cfg("conv_only"), seed=1)
        with pytest.raises(ConfigError, match="both heads"):
            ctc_rnnt_divergence(m, [2], seed=0)

    def test_ctc_wall_below_rnnt_wall_paired(self, conv_model):
        for d in (4, 8):
            [ctc] = sweep_rtf(conv_model, "ctc", [d], seed=2).samples
            [rnnt] = sweep_rtf(conv_model, "rnnt", [d], seed=2).samples
            assert ctc.wall_s < rnnt.wall_s, d
