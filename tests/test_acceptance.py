"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Every criterion prints "[criterion NN] PASS <title>" as it completes (or
FAIL before re-raising), so `pytest tests/test_acceptance.py -v -s` yields
a readable checklist. Tolerances are pinned here, not imported.
"""

import contextlib
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from lfab import attention, bench, cli, decoders, encoders, frontend, metrics, tensor
from lfab.attention import AttentionConfig
from lfab.decoders import RnntDecoderWeights, default_vocab
from lfab.encoders import EncoderConfig
from lfab.tensor import Tensor
from test_attention import init_attention_weights, lca_masked_oracle


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL {title}")
        raise
    print(f"\n[criterion {num:02d}] PASS {title}")


def rand_tensor(rng, shape, scale=1.0):
    return Tensor((scale * rng.standard_normal(shape)).astype(np.float32))


def conv_model_with_heads(seed=0):
    cfg = EncoderConfig(family="conv_only", model_dim=64, channels=64,
                        num_blocks=8)
    return encoders.attach_heads(encoders.build(cfg, seed))


# ---------------------------------------------------------------------------
# 1. attention equivalence


def test_criterion_01_attention_equivalence():
    with criterion(1, "local attention matches full/masked references"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            t = int(rng.integers(2, 41))
            heads = int(rng.choice([1, 2, 4]))
            dh = int(rng.choice([4, 8, 16]))
            cfg = AttentionConfig(
                heads, dh,
                left_context=t - 1 + int(rng.integers(0, 8)),
                right_context=t - 1 + int(rng.integers(0, 8)),
            )
            w = init_attention_weights(cfg, rng)
            x = rand_tensor(rng, (t, cfg.model_dim))
            full = attention.mha_full(x, w, cfg)
            lca = attention.lca_chunked(x, w, cfg)
            assert np.abs(lca.array - full.array).max() <= 1e-6
        for _ in range(200):
            t = int(rng.integers(2, 1025))
            cfg = AttentionConfig(
                2, 8,
                left_context=int(rng.integers(1, 161)),
                right_context=int(rng.integers(1, 161)),
            )
            w = init_attention_weights(cfg, rng)
            x = rand_tensor(rng, (t, cfg.model_dim))
            got = attention.lca_chunked(x, w, cfg)
            ref = lca_masked_oracle(x, w, cfg)
            assert np.abs(got.array - ref.array).max() <= 1e-5
        assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 2. memory scaling


def test_criterion_02_memory_scaling():
    with criterion(2, "peak bytes at 2x input: quadratic full, linear local"):
        start = time.perf_counter()

        def measured_peak(cfg, t):
            model = encoders.build(cfg, seed=0)
            feats = rand_tensor(np.random.default_rng(0), (t, 80))
            with tensor.AllocationTracker() as tracker:
                encoders.encode(model, feats)
            return tracker.peak_bytes

        full_cfg = EncoderConfig(family="conformer_full", model_dim=64,
                                 channels=64, num_blocks=2,
                                 attention=AttentionConfig(4, 16))
        lca_cfg = EncoderConfig(family="conformer_lca", model_dim=64,
                                channels=64, num_blocks=2,
                                attention=AttentionConfig(4, 16, 16, 16))
        full_ratio = measured_peak(full_cfg, 4096) / measured_peak(full_cfg, 2048)
        lca_ratio = measured_peak(lca_cfg, 4096) / measured_peak(lca_cfg, 2048)
        assert 3.0 <= full_ratio <= 4.5, full_ratio
        assert 1.7 <= lca_ratio <= 2.3, lca_ratio
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 3. full-scale max-duration ordering


def test_criterion_03_max_duration_ordering():
    with criterion(3, "max duration ranks conv > local conformer > SE > full"):
        budget = 48 * 2**30
        seconds = {
            name: bench.find_max_duration(cli.resolve_run_config(name).encoder,
                                          budget)
            for name in ("table2-quartznet2", "table2-contextnet",
                         "table2-conformer", "table2-fastconformer")
        }
        assert (seconds["table2-quartznet2"]
                > seconds["table2-fastconformer"]
                > seconds["table2-contextnet"]
                > seconds["table2-conformer"]), seconds
        assert seconds["table2-contextnet"] >= 10 * seconds["table2-conformer"]


# ---------------------------------------------------------------------------
# 4. RTF arithmetic and flatness


def test_criterion_04_rtf_arithmetic_and_trend():
    with criterion(4, "rtf equals wall/duration; conv rtf flat with length"):
        model = conv_model_with_heads()
        report = bench.sweep_rtf(model, "ctc", [30, 60, 120, 300, 600],
                                 seed=0, repeats=3)
        for s in report.samples:
            assert s.rtf == s.wall_s / s.duration_s
        rtfs = [s.rtf for s in report.samples]
        spread = (max(rtfs) - min(rtfs)) / min(rtfs)
        assert spread < 0.5, rtfs


# ---------------------------------------------------------------------------
# 5. CTC vs RNNT cost divergence


def test_criterion_05_ctc_rnnt_divergence():
    with criterion(5, "shared-encoder RNNT costs at least CTC, never less"):
        model = conv_model_with_heads()
        w = model.weights
        keep = {n: w[n] for n in ("head.rnnt.joint.w_e", "head.rnnt.joint.w_p",
                                  "head.rnnt.joint.b", "head.rnnt.joint.w_out")}
        # hold the emission rate: token 0 wins every joint eval, so every
        # frame emits the full per-frame cap regardless of audio content
        j = w["head.rnnt.joint.b"].shape[0]
        forced = -np.ones((29, j), dtype=np.float32)
        forced[0] = 1.0
        w["head.rnnt.joint.w_e"] = Tensor.zeros(w["head.rnnt.joint.w_e"].shape)
        w["head.rnnt.joint.w_p"] = Tensor.zeros(w["head.rnnt.joint.w_p"].shape)
        w["head.rnnt.joint.b"] = Tensor(np.ones(j, dtype=np.float32))
        w["head.rnnt.joint.w_out"] = Tensor(forced)
        try:
            rows = bench.ctc_rnnt_divergence(model, [30, 120, 600], seed=0,
                                             repeats=3, rel_tol=0.05)
        finally:
            w.update(keep)
        cap_plus_one = decoders.MAX_SYMBOLS_PER_FRAME + 1
        for r in rows:
            assert r["ratio"] >= 1.0, r
            assert r["wall_rnnt_s"] >= r["wall_ctc_s"], r
            assert r["joint_evals"] == r["t_prime"] + r["emissions"]
            assert r["evals_per_frame"] == cap_plus_one  # rate held exactly
        for a, b in zip(rows, rows[1:]):
            assert b["ratio"] >= a["ratio"] * 0.95, (a, b)


# ---------------------------------------------------------------------------
# 6. decoder oracles


def collapse_oracle(raw_ids, blank):
    out, prev = [], None
    for k in raw_ids:
        if k != prev and k != blank:
            out.append(k)
        prev = k
    return out


def hand_traced_weights():
    """Tiny transducer whose 2-frame decode is derivable by hand.

    Joint logit for token 1 is tanh(enc); blank's is 50*tanh(h). The primed
    LSTM state is exactly 0 (all-zero gates biases), and feeding token 1
    drives h to ~0.76. Frame enc=+3: token 1 wins once, then blank wins by
    a 30x margin. Frame enc=-3: blank immediately.
    """
    z = np.zeros
    w_out = np.full((4, 2), -1.0, dtype=np.float32)
    w_out[1] = [1.0, 0.0]
    w_out[3] = [0.0, 50.0]
    return RnntDecoderWeights(
        embedding=Tensor(np.array([[0.0], [5.0], [0.0]], dtype=np.float32)),
        lstm_w_x=Tensor(np.array([[3.0], [0.0], [3.0], [3.0]], dtype=np.float32)),
        lstm_w_h=Tensor._wrap(z((4, 1), dtype=np.float32)),
        lstm_b=Tensor._wrap(z(4, dtype=np.float32)),
        w_enc=Tensor(np.array([[1.0], [0.0]], dtype=np.float32)),
        w_pred=Tensor(np.array([[0.0], [1.0]], dtype=np.float32)),
        b_joint=Tensor._wrap(z(2, dtype=np.float32)),
        w_out=Tensor(w_out),
    )


def random_rnnt_weights(rng, vocab_size=28, e=8, h=12, j=10, d=16):
    def r(shape):
        return rand_tensor(rng, shape, scale=0.5)

    return RnntDecoderWeights(
        embedding=r((vocab_size, e)), lstm_w_x=r((4 * h, e)),
        lstm_w_h=r((4 * h, h)), lstm_b=r((4 * h,)),
        w_enc=r((j, d)), w_pred=r((j, h)), b_joint=r((j,)),
        w_out=r((vocab_size + 1, j)),
    )


def test_criterion_06_decoder_oracles():
    with criterion(6, "greedy decoders match independent oracles and bounds"):
        vocab = default_vocab()
        rng = np.random.default_rng(66)
        for _ in range(200):
            t = int(rng.integers(1, 61))
            logits = rand_tensor(rng, (t, vocab.size + 1), scale=2.0)
            hyp = decoders.ctc_greedy(logits, vocab)
            raw = [int(r.argmax()) for r in logits.array]
            assert hyp.token_ids == collapse_oracle(raw, vocab.blank_id)

        three = decoders.Vocab(("a", "b", "c"))
        enc = Tensor(np.array([[3.0], [-3.0]], dtype=np.float32))
        hyp = decoders.rnnt_greedy(enc, hand_traced_weights(), three,
                                   max_symbols_per_frame=2)
        assert hyp.token_ids == [1]
        assert hyp.text == "b"
        assert hyp.frames == 2
        assert hyp.joint_evals == 3  # 1 emission + 2 frame-advancing blanks

        for seed in range(10):
            w = random_rnnt_weights(np.random.default_rng(seed))
            t = int(np.random.default_rng(seed + 100).integers(1, 30))
            enc = rand_tensor(np.random.default_rng(seed + 200), (t, 16))
            for cap in (1, 2, 5):
                hyp = decoders.rnnt_greedy(enc, w, vocab,
                                           max_symbols_per_frame=cap)
                assert hyp.joint_evals <= (cap + 1) * t
                assert hyp.joint_evals == t + len(hyp.token_ids)


# ---------------------------------------------------------------------------
# 7. WER oracle


def exhaustive_distance(ref_words, hyp_words):
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (ref_words[i - 1] != hyp_words[j - 1]),
            d(i, j - 1) + 1,
            d(i - 1, j) + 1,
        )

    return d(len(ref_words), len(hyp_words))


def test_criterion_07_wer_oracle():
    with criterion(7, "WER matches exhaustive search; stats match known row"):
        rng = np.random.default_rng(7)
        words = ("a", "b", "ab", "ba", "abb")
        for _ in range(500):
            ref = tuple(rng.choice(words, size=rng.integers(1, 7)))
            hyp = tuple(rng.choice(words, size=rng.integers(0, 7)))
            got = metrics.wer(" ".join(ref), " ".join(hyp))
            assert got.errors == exhaustive_distance(ref, hyp)
            assert got.wer == got.errors / len(ref)

        for text in ("one two three", "Hello, World!", "a 7 c's"):
            assert metrics.wer(text, text).wer == 0.0

        durations_min = [6.89, 29.53] + [16.413333333333334] * 9
        entries = [
            metrics.ManifestEntry(f"t{i}.wav", m * 60.0, "x")
            for i, m in enumerate(durations_min)
        ]
        assert metrics.manifest_stats(entries) == {
            "count": 11, "min_min": 6.89, "max_min": 29.53, "mean_min": 16.74,
        }


# ---------------------------------------------------------------------------
# 8. structural contracts


def toy_config(family):
    if family == "conv_only":
        return EncoderConfig(family=family, model_dim=64, channels=64,
                             num_blocks=8)
    if family in ("conv_se", "conv_se_citrinet"):
        kw = {}
        if family == "conv_se_citrinet":
            kw["kernel_sizes"] = (5, 3, 7, 5, 9, 5, 7, 3)
        return EncoderConfig(family=family, model_dim=64, channels=32,
                             num_blocks=8, **kw)
    gt = family == "conformer_lca_gt"
    return EncoderConfig(family=family, model_dim=64, channels=64,
                         num_blocks=4,
                         attention=AttentionConfig(4, 16, 16, 16,
                                                   use_global_token=gt))


def test_criterion_08_structural_contracts():
    with criterion(8, "closed-form parameter counts and downsample rates"):
        for family in encoders.FAMILIES:
            cfg = toy_config(family)
            model = encoders.build(cfg, seed=0)
            assert model.parameter_count == encoders.expected_parameter_count(cfg)

        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(1, 12))
            c_in = int(rng.integers(1, 100))
            c_out = int(rng.integers(1, 100))
            ratio = Fraction(tensor.separable_param_count(c_in, c_out, k),
                             k * c_in * c_out)
            assert ratio == Fraction(k * c_in + c_in * c_out, k * c_in * c_out)

        def halvings(t, n):
            for _ in range(n):
                t = (t - 1) // 2 + 1
            return t

        four_x = encoders.build(toy_config("conv_only"), seed=0)
        eight_x = encoders.build(toy_config("conv_se"), seed=0)
        conformer = encoders.build(toy_config("conformer_lca"), seed=0)
        for t in range(50, 801, 83):
            feats = rand_tensor(np.random.default_rng(t), (t, 80))
            assert encoders.encode(four_x, feats).shape[0] == halvings(t, 2)
            assert encoders.encode(eight_x, feats).shape[0] == halvings(t, 3)
        feats = rand_tensor(np.random.default_rng(0), (400, 80))
        assert encoders.encode(conformer, feats).shape[0] == halvings(400, 3)


# ---------------------------------------------------------------------------
# 9. determinism of every command


def test_criterion_09_command_determinism(tmp_path, capsys):
    with criterion(9, "fixed seed gives byte-identical command outputs"):
        wav = tmp_path / "in.wav"
        frontend.write_wav(wav, frontend.synth_audio(2.0, seed=1))

        outs = []
        for _ in range(2):
            assert cli.main(["transcribe", "--config", "toy-quartznet2",
                             "--seed", "3", "--audio", str(wav),
                             "--decoder", "rnnt"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

        blobs = []
        for name in ("a.lfwb", "b.lfwb"):
            path = tmp_path / name
            assert cli.main(["gen-weights", "--config", "toy-conformer",
                             "--seed", "3", "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        tables = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert cli.main(["bench", "--config", "toy-quartznet2",
                             "--seed", "3", "--durations", "1,2",
                             "--repeats", "1", "--out", str(path)]) == 0
            rows = [ln.split(",") for ln in path.read_text().splitlines()]
            # wall_s, rtf and the stage seconds are the timing columns;
            # everything else is value
            timing = {"wall_s", "rtf", "frontend_s", "encoder_s", "decoder_s"}
            keep = [i for i, name in enumerate(rows[0]) if name not in timing]
            tables.append([[r[i] for i in keep] for r in rows])
        assert tables[0] == tables[1]
        capsys.readouterr()


# ---------------------------------------------------------------------------
# 10. max-duration search equals linear scan


def test_criterion_10_max_duration_linear_scan():
    with criterion(10, "budget search agrees with exhaustive linear scan"):
        rng = np.random.default_rng(10)
        families = list(encoders.FAMILIES)
        for i in range(50):
            cfg = toy_config(families[i % len(families)])
            budget = int(rng.integers(2_000_000, 40_000_000))
            got = bench.find_max_duration(cfg, budget)
            d = 0
            while bench.predict_peak_bytes(
                cfg, bench._frames_for_seconds(d + 1)
            ) <= budget:
                d += 1
            assert got == d, (cfg.family, budget, got, d)
