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
    encoder_seconds: float = 0.0
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


def ctc_greedy(logits: Tensor, vocab: Vocab, encoder_seconds: float = 0.0) -> Hypothesis:
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
        encoder_seconds=encoder_seconds,
        decode_seconds=time.perf_counter() - t0,
        frames=logits.shape[0],
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def joint(enc_t: Tensor, pred_h: Tensor, w: RnntDecoderWeights) -> Tensor:
    """Joint network logits for one (frame, prediction-state) pair."""
    if enc_t.shape != (w.w_enc.shape[1],):
        raise ShapeError(f"encoder frame must be ({w.w_enc.shape[1]},), got {enc_t.shape}")
    if pred_h.shape != (w.w_pred.shape[1],):
        raise ShapeError(f"prediction state must be ({w.w_pred.shape[1]},), got {pred_h.shape}")
    z = (
        w.w_enc.array.astype(np.float64) @ enc_t.array.astype(np.float64)
        + w.w_pred.array.astype(np.float64) @ pred_h.array.astype(np.float64)
        + w.b_joint.array.astype(np.float64)
    )
    return Tensor._wrap((w.w_out.array.astype(np.float64) @ np.tanh(z)).astype(np.float32))


def rnnt_greedy(
    encoded: Tensor,
    w: RnntDecoderWeights,
    vocab: Vocab,
    max_symbols_per_frame: int = MAX_SYMBOLS_PER_FRAME,
    encoder_seconds: float = 0.0,
) -> Hypothesis:
    """Frame-synchronous greedy decode.

    Per frame: evaluate the joint against the current prediction state; a
    blank advances to the next frame; a token is emitted and fed back through
    the prediction network, up to max_symbols_per_frame per frame, after
    which one more evaluation is spent and the frame is force-advanced.

    Work runs only as often as its inputs change: head weights are cast to
    float64 once per call, w_enc @ enc_t is taken once per frame, w_pred @ h
    once per emission and lstm_w_x @ embedding[k] once per token id. A joint
    evaluation is then tanh(a + p + b_joint), w_out @, a float32 cast and an
    argmax (lowest index wins ties). The encoder projection stays a per-frame
    matrix-vector product, not one (T', D) GEMM, because GEMM rows can differ
    from gemv in the last bits; so every float64 value, and every token, is
    the same as when each evaluation recomputes every projection.
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
    x_proj: dict[int, np.ndarray] = {}  # token id -> w_x @ embed[k]

    def lstm_step(wx, h, c):
        gates = wx + w_h @ h + b  # gate order i, f, o, g
        ifo = _sigmoid(gates[: 3 * hidden])
        c_new = ifo[hidden : 2 * hidden] * c + ifo[:hidden] * np.tanh(gates[3 * hidden :])
        return ifo[2 * hidden :] * np.tanh(c_new), c_new

    # blank priming: one step on the zero input vector from the zero state
    state = np.zeros(hidden, dtype=np.float64)
    h, c = lstm_step(w_x @ np.zeros(embed.shape[1], dtype=np.float64), state, state)
    p = w_pred @ h

    enc64 = encoded.array.astype(np.float64)
    token_ids: list[int] = []
    joint_evals = 0
    for t in range(enc64.shape[0]):
        a = w_enc @ enc64[t]
        emitted = 0
        while True:
            k = int((w_out @ np.tanh(a + p + b_joint)).astype(np.float32).argmax())
            joint_evals += 1
            if k == blank or emitted == max_symbols_per_frame:
                break  # blank, or over-cap token discarded: advance frame
            token_ids.append(k)
            wx = x_proj.get(k)
            if wx is None:
                wx = x_proj[k] = w_x @ embed[k]
            h, c = lstm_step(wx, h, c)
            p = w_pred @ h
            emitted += 1
    return Hypothesis(
        token_ids=token_ids,
        text=vocab.detokenize(token_ids),
        encoder_seconds=encoder_seconds,
        decode_seconds=time.perf_counter() - t0,
        frames=enc64.shape[0],
        joint_evals=joint_evals,
    )
