"""RTF measurement, analytic peak-memory model, and decoder cost divergence.

The memory model predicts the peak number of live activation bytes during a
transcription pass. One walk over encoders.conv_schedule, the SE epilogue or
the conformer body, and the logits keeps the largest count of float32
elements live at any step; the feature matrix is added on top. Weights
(duration-independent) and decoder state (a few vectors) are excluded.
Attention takes the path attention.fits_one_chunk picks for the forward pass.

Timing uses a monotonic clock and keeps the fastest of 3 repeats: on a shared
machine noise only adds time, and a slow stretch can cover two of three
repeats, which a median would then report. Timed sections refuse to
interleave so wall times stay honest.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import decoders, encoders, frontend, tensor
from .attention import chunk_size, fits_one_chunk
from .encoders import (
    CONFORMER_FULL,
    CONV_SE,
    CONV_SE_CITRINET,
    FEATURE_DIM,
    EncoderConfig,
    EncoderModel,
)
from .errors import ConfigError
from .frontend import AudioBuffer

BYTES_PER_ELEMENT = 4
DEFAULT_REPEATS = 3
STAGES = ("frontend_s", "encoder_s", "decoder_s")

_timed_section_active = False


@contextmanager
def _timed_section():
    global _timed_section_active
    if _timed_section_active:
        raise RuntimeError("timed sections cannot be interleaved")
    _timed_section_active = True
    try:
        yield
    finally:
        _timed_section_active = False


@dataclass(frozen=True)
class BenchSample:
    duration_s: float
    wall_s: float
    rtf: float
    predicted_peak_bytes: int
    measured_peak_bytes: int
    decoder_kind: str
    # stages of the fastest repeat; they sum to wall_s
    frontend_s: float = 0.0
    encoder_s: float = 0.0
    decoder_s: float = 0.0

    def __post_init__(self):
        if self.rtf != self.wall_s / self.duration_s:
            raise ValueError("rtf must equal wall_s / duration_s exactly")


CSV_HEADER = ("duration_s,wall_s,rtf,frontend_s,encoder_s,decoder_s,"
              "predicted_peak_bytes,measured_peak_bytes,decoder")


@dataclass
class BenchReport:
    samples: list[BenchSample] = field(default_factory=list)

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for s in self.samples:
            lines.append(
                f"{s.duration_s},{s.wall_s:.6f},{s.rtf:.6f},"
                f"{s.frontend_s:.6f},{s.encoder_s:.6f},{s.decoder_s:.6f},"
                f"{s.predicted_peak_bytes},{s.measured_peak_bytes},{s.decoder_kind}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analytic memory model


def _attention_phase(cfg: EncoderConfig, t: int) -> int:
    """Live elements during one attention sublayer at T' = t."""
    att = cfg.attention
    d, h, dh = cfg.model_dim, att.num_heads, att.head_dim
    if cfg.family == CONFORMER_FULL or fits_one_chunk(att, t):
        t_att = t + att.use_global_token  # the dense path prepends the token
        return 10 * t * d + 2 * h * t_att * t_att
    cs = chunk_size(att)
    n = -(-t // cs)
    win = cs + att.left_context + att.right_context
    # projections, padded queries + context, key/value windows, scores + probabilities
    return (8 * t * d + 2 * n * cs * d + 2 * h * n * win * dh
            + 2 * h * n * cs * (win + att.use_global_token))


def predict_peak_bytes(cfg: EncoderConfig, t_frames: int) -> int:
    """Predicted peak live activation bytes for a pass over t_frames features.

    The (T, 80) features are added on top of the encoder's peak. That
    over-counts: encode frees them once it has transposed them, when
    handed the only reference (run_pipeline, transcribe). The chunked
    attention is also over-counted, as if its padded queries, key/value
    windows, scores and probabilities were whole; it holds one block of
    chunks of them at a time. Left out: the front end's float64 energies
    (8 bytes per cell, in the features' own buffer and a half-size one,
    before encode runs) and the kernels' fixed float64 tiles and blocks.
    """
    if t_frames < 1:
        raise ValueError(f"t_frames must be >= 1, got {t_frames}")
    t, x, peak = t_frames, t_frames * FEATURE_DIM, 0  # x: live input elements
    for s in encoders.conv_schedule(cfg):
        t_out = (t - 1) // s.stride + 1
        # (input, depthwise out, pointwise out) or (input, two c_out buffers
        # from norm/act/gate/residual rebinding)
        peak = max(peak, x + t_out * (max(s.c_in, s.c_out) + s.c_out))
        x, t = s.c_out * t_out, t_out
    d = cfg.model_dim
    if cfg.family in (CONV_SE, CONV_SE_CITRINET):
        peak = max(peak, x + t * d)  # pointwise epilogue
        x = t * d
    peak = max(peak, 2 * x)  # transpose to time-major
    if cfg.attention is not None:
        # projection, then the feed-forward, attention and conv module
        # sublayers; the position add (3·t·d) and final norm (2·t·d) hold less
        peak = max(peak, x + t * d, t * (encoders.FF_EXPANSION + 5) * d,
                   _attention_phase(cfg, t), 14 * t * d)
        x = t * d
    # decode: encoder output stays live next to the logits
    peak = max(peak, x + t * (decoders.default_vocab().size + 1))
    return BYTES_PER_ELEMENT * (t_frames * FEATURE_DIM + peak)


# ---------------------------------------------------------------------------
# timed pipeline


def _decode(model: EncoderModel, decoder: str, enc):
    vocab = decoders.default_vocab()
    if decoder == "ctc":
        return decoders.ctc_greedy(encoders.ctc_logits(model, enc), vocab)
    if decoder == "rnnt":
        if model.rnnt_head is None:
            raise ConfigError("model has no rnnt head attached")
        return decoders.rnnt_greedy(enc, model.rnnt_head, vocab)
    raise ConfigError(f"unknown decoder {decoder!r}, expected ctc or rnnt")


def run_pipeline(model: EncoderModel, decoder: str, audio: AudioBuffer):
    """Front-end, encoder, decode. Returns (hypothesis, stage seconds).

    encode gets the only reference to the features, popped from a list, so
    they are freed once it has transposed them."""
    t0 = time.perf_counter()
    feats = [frontend.log_mel(audio).frames]
    t1 = time.perf_counter()
    enc = encoders.encode(model, feats.pop())
    t2 = time.perf_counter()
    hyp = _decode(model, decoder, enc)
    stages = {
        "frontend_s": t1 - t0,
        "encoder_s": t2 - t1,
        "decoder_s": hyp.decode_seconds,
    }
    return hyp, stages


def sweep_rtf(
    model: EncoderModel,
    decoder: str,
    durations,
    seed: int,
    repeats: int = DEFAULT_REPEATS,
) -> BenchReport:
    """One BenchSample per duration on synthetic audio: the wall time over
    front-end + encoder + decode of the fastest repeat, the stage times of
    that repeat, and the predicted and tracked peak bytes.

    The repeats run in rounds, one run of every duration per round, so a
    slow stretch of the machine that would cover every repeat of a short
    duration meets one repeat of each duration it overlaps instead. The
    audio of every duration stays live for the whole sweep.
    """
    durations = check_sweep(durations, repeats)
    audios = [frontend.synth_audio(d, seed) for d in durations]
    runs = [[] for _ in durations]
    with _timed_section():
        for _ in range(repeats):
            for audio, audio_runs in zip(audios, runs):
                audio_runs.append(_tracked_run(model, decoder, audio))
    return BenchReport(
        [_sample(model, decoder, a, r) for a, r in zip(audios, runs)]
    )


def check_sweep(durations, repeats: int) -> list:
    """durations as a list; a ValueError unless they and repeats suit sweep_rtf."""
    durations = list(durations)
    if not durations:
        raise ValueError("durations must be non-empty")
    if any(b <= a for a, b in zip(durations, durations[1:])):
        raise ValueError(f"durations must be sorted ascending, got {durations}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return durations


def _tracked_run(model: EncoderModel, decoder: str, audio: AudioBuffer):
    """(stage seconds, tracked peak bytes) of one pipeline run."""
    with tensor.AllocationTracker() as tracker:
        _, stages = run_pipeline(model, decoder, audio)
    return stages, tracker.peak_bytes


def _sample(model: EncoderModel, decoder: str, audio: AudioBuffer, runs) -> BenchSample:
    fastest = min((stages for stages, _ in runs), key=lambda st: sum(st.values()))
    wall = sum(fastest.values())
    frames = frontend.num_frames_for(audio.samples.size)
    return BenchSample(
        duration_s=audio.duration_s,
        wall_s=wall,
        rtf=wall / audio.duration_s,
        predicted_peak_bytes=predict_peak_bytes(model.config, frames),
        measured_peak_bytes=max(peak for _, peak in runs),
        decoder_kind=decoder,
        **fastest,
    )


# ---------------------------------------------------------------------------
# maximum single-pass duration under a byte budget


def _frames_for_seconds(seconds: int) -> int:
    return frontend.num_frames_for(seconds * frontend.SAMPLE_RATE)


def find_max_duration(cfg: EncoderConfig, budget_bytes: int) -> int:
    """Largest whole-second duration whose predicted peak fits the budget.

    A budget that cannot hold one second of the model is a ConfigError.
    """
    if predict_peak_bytes(cfg, _frames_for_seconds(1)) > budget_bytes:
        raise ConfigError(
            f"budget too small: {budget_bytes} bytes cannot fit one second"
        )
    hi = 1
    while predict_peak_bytes(cfg, _frames_for_seconds(hi)) <= budget_bytes:
        hi *= 2
    lo = hi // 2  # known to fit; hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predict_peak_bytes(cfg, _frames_for_seconds(mid)) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# CTC vs RNNT cost divergence


def ctc_rnnt_divergence(
    model: EncoderModel,
    durations,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    rel_tol: float = 0.05,
):
    """Decode-cost divergence of RNNT vs CTC on one shared encoder.

    Per duration: the decode-wall ratio RNNT/CTC plus pipeline walls and
    joint-eval accounting. The ratio is taken over the decode stages, the
    only place the two pipelines differ; folding in the shared encoder
    would just dilute the quotient with an identical term. Decode walls
    take the fastest of the repeats: sub-millisecond stages carry additive
    scheduler noise that medians do not fully reject. The repeats alternate
    CTC and RNNT, so both decoders sample the same stretch of machine speed.

    When the per-frame emission rate is held exactly constant across the
    sweep (equal joint evals per frame at every duration), the ratio must
    not decrease beyond rel_tol of clock jitter as duration grows: the
    vectorised CTC scan amortises its fixed per-call cost with length
    while the autoregressive loop pays a fixed price per joint evaluation.
    """
    if model.ctc_head is None or model.rnnt_head is None:
        raise ConfigError("divergence needs both heads attached to one encoder")
    rows = []
    for d in durations:
        audio = frontend.synth_audio(d, seed)
        walls = {"ctc": [], "rnnt": []}
        decodes = {"ctc": [], "rnnt": []}
        with _timed_section():
            for _ in range(repeats):
                for kind in ("ctc", "rnnt"):
                    hyp, stages = run_pipeline(model, kind, audio)
                    walls[kind].append(sum(stages.values()))
                    decodes[kind].append(stages["decoder_s"])
        # hyp is the last rnnt run; decoding is deterministic across repeats
        emissions = len(hyp.token_ids)
        if hyp.joint_evals != hyp.frames + emissions:
            raise RuntimeError(
                f"joint eval accounting broken: {hyp.joint_evals} != "
                f"{hyp.frames} + {emissions}"
            )
        decode_ctc = min(decodes["ctc"])
        decode_rnnt = min(decodes["rnnt"])
        rows.append(
            {
                "duration_s": float(d),
                "wall_ctc_s": statistics.median(walls["ctc"]),
                "wall_rnnt_s": statistics.median(walls["rnnt"]),
                "decode_ctc_s": decode_ctc,
                "decode_rnnt_s": decode_rnnt,
                "ratio": decode_rnnt / decode_ctc,
                "t_prime": hyp.frames,
                "emissions": emissions,
                "joint_evals": hyp.joint_evals,
                "evals_per_frame": hyp.joint_evals / hyp.frames,
            }
        )
    rates = [r["evals_per_frame"] for r in rows]
    if len(set(rates)) == 1:
        for a, b in zip(rows, rows[1:]):
            if b["ratio"] < a["ratio"] * (1.0 - rel_tol):
                raise RuntimeError(
                    "RNNT/CTC decode ratio decreased across the sweep: "
                    f"{a['ratio']:.3f} at {a['duration_s']}s -> "
                    f"{b['ratio']:.3f} at {b['duration_s']}s"
                )
    return rows
