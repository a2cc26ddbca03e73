"""Decoder tests: CTC collapse rule, RNNT greedy loop, cost accounting."""

import numpy as np
import pytest

from lfab import cli, encoders, frontend
from lfab.decoders import (
    MAX_SYMBOLS_PER_FRAME,
    Hypothesis,
    RnntDecoderWeights,
    Vocab,
    _stacked_prediction,
    ctc_greedy,
    default_vocab,
    rnnt_greedy,
)
from lfab.errors import ShapeError
from lfab.tensor import Tensor


def ctc_collapse_oracle(ids, blank):
    """Rule-based reference: merge adjacent repeats, then drop blanks."""
    out, prev = [], None
    for i in ids:
        if i != prev and i != blank:
            out.append(int(i))
        prev = i
    return out


def logits_for_path(path, width, seed=0):
    """Logit rows whose argmax follows `path` exactly."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 0.0, size=(len(path), width)).astype(np.float32)
    for t, k in enumerate(path):
        m[t, k] = 1.0
    return Tensor(m)


def make_rnnt_weights(seed, d=16, e=8, h=12, j=10, vocab_size=28, scale=1.0):
    rng = np.random.default_rng(seed)

    def w(*shape, fan):
        lim = scale / np.sqrt(fan)
        return Tensor(rng.uniform(-lim, lim, size=shape).astype(np.float32))

    return RnntDecoderWeights(
        embedding=w(vocab_size, e, fan=e),
        lstm_w_x=w(4 * h, e, fan=e),
        lstm_w_h=w(4 * h, h, fan=h),
        lstm_b=w(4 * h, fan=h),
        w_enc=w(j, d, fan=d),
        w_pred=w(j, h, fan=h),
        b_joint=w(j, fan=h),
        w_out=w(vocab_size + 1, j, fan=j),
    )


def rnnt_oracle(enc, w, blank, cap):
    """Independent greedy RNNT walk in plain numpy float64."""
    emb = w.embedding.array.astype(np.float64)
    wx = w.lstm_w_x.array.astype(np.float64)
    wh = w.lstm_w_h.array.astype(np.float64)
    b = w.lstm_b.array.astype(np.float64)
    we = w.w_enc.array.astype(np.float64)
    wp = w.w_pred.array.astype(np.float64)
    bj = w.b_joint.array.astype(np.float64)
    wo = w.w_out.array.astype(np.float64)
    hid = wh.shape[1]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def step(x, h, c):
        z = wx @ x + wh @ h + b
        c = sig(z[hid : 2 * hid]) * c + sig(z[:hid]) * np.tanh(z[3 * hid :])
        return sig(z[2 * hid : 3 * hid]) * np.tanh(c), c

    h, c = step(np.zeros(emb.shape[1]), np.zeros(hid), np.zeros(hid))
    toks, evals = [], 0
    for t in range(enc.shape[0]):
        for n in range(cap + 1):
            logits = (wo @ np.tanh(we @ enc[t] + wp @ h + bj)).astype(np.float32)
            evals += 1
            k = int(logits.argmax())
            if k == blank or n == cap:
                break
            toks.append(k)
            h, c = step(emb[k], h, c)
    return toks, evals


class TestVocab:
    def test_default_vocab_28_tokens_blank_last(self):
        v = default_vocab()
        assert v.size == 28
        assert v.blank_id == 28
        assert v.tokens[:3] == ("a", "b", "c")
        assert v.tokens[-2:] == (" ", "'")

    def test_detokenize(self):
        v = default_vocab()
        assert v.detokenize([7, 4, 11, 11, 14]) == "hello"
        assert v.detokenize([]) == ""


class TestCtcGreedy:
    def test_hello_path(self):
        v = default_vocab()
        path = [7, 7, 28, 4, 11, 28, 11, 11, 14]
        hyp = ctc_greedy(logits_for_path(path, 29), v)
        assert hyp.text == "hello"
        assert hyp.token_ids == [7, 4, 11, 11, 14]
        assert hyp.frames == len(path)

    def test_all_blank_is_empty(self):
        v = default_vocab()
        hyp = ctc_greedy(logits_for_path([28] * 12, 29), v)
        assert hyp.text == ""
        assert hyp.token_ids == []

    def test_blank_separated_repeat_survives(self):
        v = default_vocab()
        hyp = ctc_greedy(logits_for_path([0, 28, 0], 29), v)
        assert hyp.token_ids == [0, 0]

    def test_single_frame(self):
        v = default_vocab()
        assert ctc_greedy(logits_for_path([5], 29), v).token_ids == [5]
        assert ctc_greedy(logits_for_path([28], 29), v).token_ids == []

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_rule_oracle_on_random_paths(self, seed):
        v = default_vocab()
        rng = np.random.default_rng(seed)
        # bias the path toward blanks and repeats so collapse paths vary
        path = []
        cur = int(rng.integers(0, 29))
        for _ in range(int(rng.integers(1, 120))):
            r = rng.random()
            if r < 0.35:
                cur = 28
            elif r < 0.6:
                pass  # repeat current
            else:
                cur = int(rng.integers(0, 29))
            path.append(cur)
        hyp = ctc_greedy(logits_for_path(path, 29, seed=seed), v)
        assert hyp.token_ids == ctc_collapse_oracle(path, 28)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_logits_match_oracle(self, seed):
        v = default_vocab()
        rng = np.random.default_rng(100 + seed)
        logits = Tensor(rng.standard_normal((200, 29)).astype(np.float32))
        ids = logits.array.argmax(axis=1)
        hyp = ctc_greedy(logits, v)
        assert hyp.token_ids == ctc_collapse_oracle(ids, 28)
        assert hyp.text == v.detokenize(hyp.token_ids)

    def test_rejects_wrong_width(self):
        v = default_vocab()
        with pytest.raises(ShapeError, match="29"):
            ctc_greedy(Tensor(np.zeros((4, 28), dtype=np.float32)), v)

    def test_timing_fields(self):
        v = default_vocab()
        hyp = ctc_greedy(logits_for_path([0, 28], 29), v)
        assert hyp.decode_seconds >= 0.0


# (embed E, hidden H, joint J, encoder D) of the toy head and the test head
HEAD_DIMS = [(64, 64, 64, 64), (8, 12, 10, 16)]


class TestDecoderBlasBits:
    """The decode loop's BLAS calls give the bits of the plain products.

    Token tests cannot see a last-bit drift (a float32 argmax rarely moves),
    so these compare bytes, on operands drawn like the decoder's: float32
    weights cast to float64 and a float64 state in (-1, 1).
    """

    DRAWS = 100

    def draws(self, e, h, j, d, seed):
        rng = np.random.default_rng(seed)
        for _ in range(self.DRAWS):
            w = make_rnnt_weights(int(rng.integers(2**31)), d=d, e=e, h=h, j=j)
            state = np.tanh(rng.standard_normal(h) * 2.0)
            yield w, state, rng

    @pytest.mark.parametrize("e, h, j, d", HEAD_DIMS)
    def test_stacked_gemv_rows_match_separate_products(self, e, h, j, d):
        for w, state, _ in self.draws(e, h, j, d, seed=h):
            w_h = w.lstm_w_h.array.astype(np.float64)
            w_pred = w.w_pred.array.astype(np.float64)
            w_hp, hp, w_h_h, p = _stacked_prediction(w_h, w_pred)
            np.dot(w_hp, state, out=hp)
            assert w_h_h.tobytes() == (w_h @ state).tobytes()
            assert p.tobytes() == (w_pred @ state).tobytes()

    @pytest.mark.parametrize("e, h, j, d", HEAD_DIMS)
    def test_negated_rows_give_negated_products(self, e, h, j, d):
        # the decoder negates the i, f, o rows of the gate weights once
        for w, state, rng in self.draws(e, h, j, d, seed=h + 2):
            embed_k = w.embedding.array[rng.integers(w.embedding.shape[0])]
            for m, v in ((w.lstm_w_x.array.astype(np.float64), embed_k.astype(np.float64)),
                         (w.lstm_w_h.array.astype(np.float64), state)):
                assert (-m @ v).tobytes() == (-(m @ v)).tobytes()

    @pytest.mark.parametrize("e, h, j, d", HEAD_DIMS)
    def test_dot_out_matches_matmul(self, e, h, j, d):
        # the stacked gemv's np.dot(out=) is checked against @ above
        for w, _, rng in self.draws(e, h, j, d, seed=j + 1):
            enc_t = rng.standard_normal(d).astype(np.float32).astype(np.float64)
            z = np.tanh(rng.standard_normal(j) * 2.0)
            w_x = w.lstm_w_x.array.astype(np.float64)
            embed_k = w.embedding.array[rng.integers(w.embedding.shape[0])]
            for m, v in ((w_x, embed_k.astype(np.float64)),
                         (w_x, np.zeros(e)),
                         (w.w_enc.array.astype(np.float64), enc_t),
                         (w.w_out.array.astype(np.float64), z)):
                out = np.empty(m.shape[0])
                np.dot(m, v, out=out)
                assert out.tobytes() == (m @ v).tobytes()


class TestRnntGreedy:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_oracle(self, seed):
        w = make_rnnt_weights(seed=seed, scale=2.0)
        rng = np.random.default_rng(1000 + seed)
        enc = rng.standard_normal((40, 16)).astype(np.float32)
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab())
        toks, evals = rnnt_oracle(enc, w, blank=28, cap=MAX_SYMBOLS_PER_FRAME)
        assert hyp.token_ids == toks
        assert hyp.joint_evals == evals

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_matches_oracle_under_small_caps(self, cap):
        w = make_rnnt_weights(seed=42, scale=2.0)
        rng = np.random.default_rng(77)
        enc = rng.standard_normal((25, 16)).astype(np.float32)
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab(), max_symbols_per_frame=cap)
        toks, evals = rnnt_oracle(enc, w, blank=28, cap=cap)
        assert hyp.token_ids == toks
        assert hyp.joint_evals == evals

    def blank_forcing_weights(self):
        """With w_enc = w_pred = 0 the joint is constant; blank row wins."""
        w = make_rnnt_weights(seed=9)
        j = w.b_joint.shape[0]
        w.w_enc = Tensor.zeros(w.w_enc.shape)
        w.w_pred = Tensor.zeros(w.w_pred.shape)
        w.b_joint = Tensor(np.ones(j, dtype=np.float32))
        out = -np.ones((29, j), dtype=np.float32)
        out[28] = 1.0
        w.w_out = Tensor(out)
        return w

    def test_blank_forcing_gives_one_eval_per_frame(self):
        w = self.blank_forcing_weights()
        enc = np.random.default_rng(0).standard_normal((17, 16)).astype(np.float32)
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab())
        assert hyp.token_ids == []
        assert hyp.text == ""
        assert hyp.joint_evals == 17
        assert hyp.frames == 17

    def test_token_forcing_saturates_cap_with_tight_bound(self):
        w = self.blank_forcing_weights()
        out = -np.ones((29, w.b_joint.shape[0]), dtype=np.float32)
        out[0] = 1.0  # token 'a' always wins, blank never does
        w.w_out = Tensor(out)
        t = 6
        enc = np.random.default_rng(1).standard_normal((t, 16)).astype(np.float32)
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab())
        cap = MAX_SYMBOLS_PER_FRAME
        assert hyp.token_ids == [0] * (cap * t)
        assert hyp.text == "a" * (cap * t)
        assert hyp.joint_evals == (cap + 1) * t  # bound is tight

    @pytest.mark.parametrize("seed", range(6))
    def test_eval_accounting_invariant(self, seed):
        w = make_rnnt_weights(seed=200 + seed, scale=3.0)
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 60))
        enc = rng.standard_normal((t, 16)).astype(np.float32)
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab())
        assert hyp.joint_evals == t + len(hyp.token_ids)
        assert hyp.joint_evals <= (MAX_SYMBOLS_PER_FRAME + 1) * t

    def test_deterministic(self):
        w = make_rnnt_weights(seed=33, scale=2.0)
        enc = np.random.default_rng(3).standard_normal((30, 16)).astype(np.float32)
        a = rnnt_greedy(Tensor(enc), w, default_vocab())
        b = rnnt_greedy(Tensor(enc), w, default_vocab())
        assert a.token_ids == b.token_ids and a.joint_evals == b.joint_evals

    def test_state_feedback_changes_decisions(self):
        # with w_pred zeroed the prediction state is invisible to the joint;
        # the same weights with w_pred restored must decode differently
        w = make_rnnt_weights(seed=8, scale=3.0)
        enc = np.random.default_rng(9).standard_normal((50, 16)).astype(np.float32)
        with_state = rnnt_greedy(Tensor(enc), w, default_vocab())
        w.w_pred = Tensor.zeros(w.w_pred.shape)
        without = rnnt_greedy(Tensor(enc), w, default_vocab())
        assert with_state.token_ids != without.token_ids

    def test_shape_errors(self):
        w = make_rnnt_weights(seed=10)
        v = default_vocab()
        with pytest.raises(ShapeError, match="encoded frames"):
            rnnt_greedy(Tensor(np.zeros((4, 5), dtype=np.float32)), w, v)
        with pytest.raises(ShapeError, match="max_symbols_per_frame"):
            rnnt_greedy(Tensor(np.zeros((4, 16), dtype=np.float32)), w, v,
                        max_symbols_per_frame=0)
        small = Vocab(tokens=("a", "b"))
        with pytest.raises(ShapeError, match="vocab"):
            rnnt_greedy(Tensor(np.zeros((4, 16), dtype=np.float32)), w, small)

    def test_text_matches_token_ids(self):
        w = make_rnnt_weights(seed=11, scale=2.0)
        v = default_vocab()
        enc = np.random.default_rng(12).standard_normal((20, 16)).astype(np.float32)
        hyp = rnnt_greedy(Tensor(enc), w, v)
        assert hyp.text == v.detokenize(hyp.token_ids)


@pytest.fixture(scope="module")
def fastconformer_frames():
    """24 s of synthetic audio through a seeded toy-fastconformer encoder, and
    an RNNT head of the toy sizes drawn alone from the model's head seed."""
    cfg = cli.resolve_run_config("toy-fastconformer").encoder
    model = encoders.build(cfg, seed=1)
    feats = frontend.log_mel(frontend.synth_audio(24.0, seed=13)).frames
    head = make_rnnt_weights(1 + encoders._HEAD_SEED_OFFSET, d=64, e=64, h=64, j=64)
    return encoders.encode(model, feats).array, head


class TestRnntGreedyLongForm:
    """Encoder output of a real model, hundreds of frames, many emissions."""

    @pytest.mark.parametrize("cap", [1, 2, 10])
    def test_matches_oracle(self, fastconformer_frames, cap):
        enc, w = fastconformer_frames
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab(), max_symbols_per_frame=cap)
        toks, evals = rnnt_oracle(enc, w, blank=28, cap=cap)
        assert enc.shape[0] >= 300
        assert hyp.token_ids == toks
        assert hyp.joint_evals == evals
        assert len(toks) >= enc.shape[0] // 2  # emission-heavy

    def test_many_distinct_tokens_match_oracle(self, fastconformer_frames):
        # sharpened joint weights spread emissions over most of the vocab,
        # so the per-token input projections are built and reused many times
        enc, head = fastconformer_frames
        w = RnntDecoderWeights(**{
            name: Tensor(getattr(head, name).array * 3.0)
            if name in ("w_enc", "w_pred", "w_out") else getattr(head, name)
            for name in RnntDecoderWeights.__dataclass_fields__
        })
        hyp = rnnt_greedy(Tensor(enc), w, default_vocab())
        toks, evals = rnnt_oracle(enc, w, blank=28, cap=MAX_SYMBOLS_PER_FRAME)
        assert hyp.token_ids == toks
        assert hyp.joint_evals == evals
        assert len(set(toks)) >= 20
        assert len(toks) >= 9 * enc.shape[0]


class TestHypothesis:
    def test_defaults(self):
        hyp = Hypothesis(token_ids=[1], text="b")
        assert hyp.joint_evals is None
        assert hyp.frames == 0
