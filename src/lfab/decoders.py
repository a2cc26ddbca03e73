"""Greedy CTC and RNNT decoding over encoder output frames.

Both decoders share the 28-token character vocabulary (a-z, space,
apostrophe) with the blank at the last index, V. CTC is a single argmax
pass with repeat collapse; RNNT walks frames with a single-cell LSTM
prediction network and a tanh joint, emitting at most max_symbols_per_frame
tokens per frame. Every frame ends with exactly one non-emitting joint
evaluation (a blank, or a discarded over-cap token), so the accounting
joint_evals == T' + emissions holds exactly.
"""

from __future__ import annotations

import string
import time
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, argmax_rows

MAX_SYMBOLS_PER_FRAME = 10


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def blank_id(self) -> int:
        """Blank sits after the real tokens, at index V."""
        return len(self.tokens)

    def detokenize(self, ids) -> str:
        return "".join(self.tokens[i] for i in ids)


def default_vocab() -> Vocab:
    return Vocab(tokens=tuple(string.ascii_lowercase) + (" ", "'"))


@dataclass
class Hypothesis:
    token_ids: list[int]
    text: str
    decode_seconds: float = 0.0
    frames: int = 0
    joint_evals: int | None = None  # RNNT only


@dataclass
class RnntDecoderWeights:
    """Prediction network (embedding + one LSTM cell) and the joint."""

    embedding: Tensor  # (V, E); blank has no row, it feeds a zero vector
    lstm_w_x: Tensor  # (4H, E), gate order i, f, o, g
    lstm_w_h: Tensor  # (4H, H)
    lstm_b: Tensor  # (4H,)
    w_enc: Tensor  # (J, D)
    w_pred: Tensor  # (J, H)
    b_joint: Tensor  # (J,)
    w_out: Tensor  # (V+1, J)


def ctc_greedy(logits: Tensor, vocab: Vocab) -> Hypothesis:
    """Per-frame argmax, collapse adjacent repeats, drop blanks."""
    if logits.ndim != 2 or logits.shape[1] != vocab.size + 1:
        raise ShapeError(
            f"logits must be (T', {vocab.size + 1}) for this vocab, got {logits.shape}"
        )
    t0 = time.perf_counter()
    ids = argmax_rows(logits)
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    toks = ids[keep]
    toks = toks[toks != vocab.blank_id]
    token_ids = [int(i) for i in toks]
    return Hypothesis(
        token_ids=token_ids,
        text=vocab.detokenize(token_ids),
        decode_seconds=time.perf_counter() - t0,
        frames=logits.shape[0],
    )


def _stacked_prediction(w_h: np.ndarray, w_pred: np.ndarray):
    """[w_h; w_pred], an output buffer for its gemv, and the views of that
    buffer that hold w_h @ h and w_pred @ h. The w_h rows come first (see
    rnnt_greedy)."""
    w_hp = np.concatenate([w_h, w_pred])
    hp = np.empty(w_hp.shape[0])
    return w_hp, hp, hp[: w_h.shape[0]], hp[w_h.shape[0] :]


def rnnt_greedy(
    encoded: Tensor,
    w: RnntDecoderWeights,
    vocab: Vocab,
    max_symbols_per_frame: int = MAX_SYMBOLS_PER_FRAME,
) -> Hypothesis:
    """Frame-synchronous greedy decode.

    Per frame: evaluate the joint against the current prediction state; a
    blank advances to the next frame; a token is emitted and fed back through
    the prediction network, up to max_symbols_per_frame per frame, after
    which one more evaluation is spent and the frame is force-advanced.

    Work runs only as often as its inputs change: head weights are cast to
    float64 once per call, w_enc @ enc_t is taken once per frame and
    lstm_w_x @ embedding[k] once per token id. A joint evaluation is
    tanh((a + p) + b_joint), w_out @, a float32 cast and an argmax (lowest
    index wins ties). After each LSTM step one gemv of the stacked
    [lstm_w_h; w_pred] gives both w_h @ h, for the next step's gates
    (wx + w_h @ h) + b, and p = w_pred @ h, for the joint. The w_h rows come
    first: OpenBLAS's gemv rounds a row by its place in a block of 4 rows,
    and 4H is a multiple of 4, so every row of the stacked product has the
    bits of the separate products (tests/test_decoders.py guards this); with
    w_pred first, most draws differ. A 1-row w_pred would differ either way,
    as numpy calls another BLAS routine for it; RNNT_JOINT_DIM is 64.

    The loop is written for the fewest numpy calls: every step writes into
    buffers made once per call, with out passed by position, and every
    product is np.dot(a, x, out), which gives the bits of @. The i, f, o rows
    of lstm_w_x, lstm_w_h and lstm_b are negated once, so those gates hold -z
    and the sigmoid 1 / (1 + exp(-z)) needs no negation pass: negating an
    operand negates every product and every rounded sum exactly, so exp sees
    the bits of -z (only a zero's sign can differ, and exp(+-0) = 1). c and
    tanh(g) sit side by side, lined up with the i and f gates, so one
    multiply gives both i * tanh(g) and f * c. The encoder projection stays
    a per-frame matrix-vector product, not one (T', D) GEMM, because GEMM
    rows can differ from gemv in the last bits. So every float64 value, and
    every token, is the same as when each evaluation recomputes every
    projection.
    """
    if encoded.ndim != 2 or encoded.shape[1] != w.w_enc.shape[1]:
        raise ShapeError(
            f"encoded frames must be (T', {w.w_enc.shape[1]}), got {encoded.shape}"
        )
    if w.w_out.shape[0] != vocab.size + 1:
        raise ShapeError(
            f"joint output width {w.w_out.shape[0]} != vocab size + blank {vocab.size + 1}"
        )
    if max_symbols_per_frame < 1:
        raise ShapeError(f"max_symbols_per_frame must be >= 1, got {max_symbols_per_frame}")
    t0 = time.perf_counter()
    blank = vocab.blank_id
    embed, w_x, w_h, b, w_enc, w_pred, b_joint, w_out = (
        wt.array.astype(np.float64)
        for wt in (w.embedding, w.lstm_w_x, w.lstm_w_h, w.lstm_b,
                  w.w_enc, w.w_pred, w.b_joint, w.w_out)
    )
    hidden = w_h.shape[1]
    for m in (w_x, w_h, b):
        m[: 3 * hidden] *= -1.0  # the i, f, o gates hold -z
    w_hp, hp, w_h_h, p = _stacked_prediction(w_h, w_pred)
    gates = np.empty(4 * hidden)  # gate order i, f, o, g
    ifo, g = gates[: 3 * hidden], gates[3 * hidden :]
    i_f, o_gate = ifo[: 2 * hidden], ifo[2 * hidden :]
    tc = np.zeros(2 * hidden)  # [tanh(g); c], lined up with [i; f]
    tanh_g, c = tc[:hidden], tc[hidden:]
    prod = np.empty(2 * hidden)  # [i * tanh(g); f * c]
    ig, fc = prod[:hidden], prod[hidden:]
    h = np.zeros(hidden)
    a, z = np.empty(w_enc.shape[0]), np.empty(w_enc.shape[0])
    logit = np.empty(w_out.shape[0])
    logit32 = np.empty(w_out.shape[0], dtype=np.float32)
    dot, add, multiply, tanh, exp, divide = (
        np.dot, np.add, np.multiply, np.tanh, np.exp, np.divide)
    argmax = logit32.argmax
    x_proj: dict[int, np.ndarray] = {}  # token id -> w_x @ embed[k]

    def lstm_step(wx):
        """h, c <- LSTM(wx, h, c); then w_h @ h and p from one gemv."""
        add(wx, w_h_h, gates)  # gates <- (wx + w_h @ h) + b
        add(gates, b, gates)
        exp(ifo, ifo)  # sigmoid: ifo <- 1 / (1 + exp(-z))
        add(ifo, 1.0, ifo)
        divide(1.0, ifo, ifo)
        tanh(g, tanh_g)
        multiply(i_f, tc, prod)
        add(fc, ig, c)  # c <- f * c + i * tanh(g)
        tanh(c, h)
        multiply(o_gate, h, h)  # h <- o * tanh(c)
        dot(w_hp, h, hp)

    # blank priming: one step on the zero input vector from the zero state
    dot(w_hp, h, hp)
    lstm_step(dot(w_x, np.zeros(embed.shape[1])))

    enc64 = encoded.array.astype(np.float64)
    token_ids: list[int] = []
    emit = token_ids.append
    joint_evals = 0
    for t in range(enc64.shape[0]):
        dot(w_enc, enc64[t], a)
        emitted = 0
        while True:
            add(a, p, z)  # z <- tanh((a + p) + b_joint)
            add(z, b_joint, z)
            tanh(z, z)
            dot(w_out, z, logit)
            logit32[...] = logit
            k = int(argmax())
            joint_evals += 1
            if k == blank or emitted == max_symbols_per_frame:
                break  # blank, or over-cap token discarded: advance frame
            emit(k)
            wx = x_proj.get(k)
            if wx is None:
                wx = x_proj[k] = dot(w_x, embed[k])
            lstm_step(wx)
            emitted += 1
    return Hypothesis(
        token_ids=token_ids,
        text=vocab.detokenize(token_ids),
        decode_seconds=time.perf_counter() - t0,
        frames=enc64.shape[0],
        joint_evals=joint_evals,
    )
