"""RTF measurement, analytic peak-memory model, and decoder cost divergence.

The memory model predicts the peak number of live activation bytes during a
transcription pass by walking the same layer sequence the forwards execute
and summing, per phase, the float32 buffers that coexist there (weights are
excluded: they are duration-independent). The prediction is the maximum over
phases plus the persistent feature matrix. Decoder state is excluded; it is
a handful of vectors regardless of duration.

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
from .encoders import (
    CONFORMER_FULL,
    CONFORMER_LCA_GT,
    CONV_ONLY,
    CONV_SE,
    CONV_SE_CITRINET,
    FEATURE_DIM,
    EncoderConfig,
    EncoderModel,
)
from .errors import ConfigError
from .frontend import AudioBuffer, FeatureMatrix

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


def _half(t: int) -> int:
    # stride-2 "same" output length for any odd kernel
    return (t - 1) // 2 + 1


def _conv_chain(widths_strides, t: int, c_in: int):
    """Phase element counts for a channels-first separable conv chain.

    Per block the worst coexisting sets are (input, depthwise out, pointwise
    out) and (input, two successive c_out buffers from norm/act/gate/residual
    rebinding).
    """
    phases = []
    x = c_in * t
    for c_out, stride in widths_strides:
        t_out = _half(t) if stride == 2 else t
        phases.append(x + c_in * t_out + c_out * t_out)
        phases.append(x + 2 * c_out * t_out)
        x = c_out * t_out
        c_in, t = c_out, t_out
    return phases, x, t


def _attention_phase(cfg: EncoderConfig, t: int) -> int:
    """Live elements during one attention sublayer at T' = t."""
    att = cfg.attention
    d = cfg.model_dim
    h, dh = att.num_heads, att.head_dim
    from .attention import chunk_size

    cs = chunk_size(att)
    dense_t = None
    if cfg.family == CONFORMER_FULL:
        dense_t = t
    elif cfg.family == CONFORMER_LCA_GT:
        if t + 1 <= cs:
            dense_t = t + 1
    elif t <= cs:  # chunked path delegates to the dense band oracle
        dense_t = t
    if dense_t is not None:
        return 10 * t * d + 2 * h * dense_t * dense_t
    n = -(-t // cs)
    t_pad = n * cs
    win = cs + att.left_context + att.right_context
    slots = win + (1 if cfg.family == CONFORMER_LCA_GT else 0)
    return (
        8 * t * d
        + 2 * t_pad * d  # padded queries + context
        + 2 * h * n * win * dh  # gathered key/value windows
        + 2 * h * n * cs * slots  # scores + probabilities
    )


def _conformer_phases(cfg: EncoderConfig, phases: list, x: int, t: int) -> int:
    """Append the phases after the subsampling, which leaves x elements over
    T' = t; return the encoder output elements."""
    d, ff = cfg.model_dim, cfg.ff_expansion * cfg.model_dim
    phases.append(2 * x)  # transpose to time-major
    phases.append(x + t * d)  # projection
    x = t * d
    phases.append(3 * x)  # position encoding add
    ff_phase = t * (ff + 5 * d)
    conv_phase = 14 * t * d
    att_phase = _attention_phase(cfg, t)
    phases.append(max(ff_phase, att_phase, conv_phase))
    phases.append(2 * x)  # final layer norm
    return x


def model_phases(cfg: EncoderConfig, t_frames: int):
    """(phase element counts, encoder output elements, T') for one pass."""
    if t_frames < 1:
        raise ValueError(f"t_frames must be >= 1, got {t_frames}")
    chain = [(s.c_out, s.stride) for s in encoders.conv_schedule(cfg)]
    phases, x, t = _conv_chain(chain, t_frames, FEATURE_DIM)
    if cfg.family == CONV_ONLY:
        phases.append(2 * x)  # transpose out
    elif cfg.family in (CONV_SE, CONV_SE_CITRINET):
        phases.append(x + t * cfg.model_dim)  # pointwise epilogue
        x = t * cfg.model_dim
        phases.append(2 * x)  # transpose out
    else:
        x = _conformer_phases(cfg, phases, x, t)
    # decode: encoder output stays live next to the logits
    phases.append(x + t * (decoders.default_vocab().size + 1))
    return phases, x, t


def predict_peak_bytes(cfg: EncoderConfig, t_frames: int) -> int:
    """Predicted peak live activation bytes for a pass over t_frames features."""
    phases, _, _ = model_phases(cfg, t_frames)
    return BYTES_PER_ELEMENT * (t_frames * FEATURE_DIM + max(phases))


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
    """Front-end, encoder, decode. Returns (hypothesis, stage seconds)."""
    t0 = time.perf_counter()
    fm = frontend.log_mel(audio)
    return encode_and_decode(model, decoder, fm, time.perf_counter() - t0)


def encode_and_decode(model: EncoderModel, decoder: str, fm: FeatureMatrix,
                      frontend_seconds: float):
    """Encoder and decode of features that took frontend_seconds to compute.

    Returns (hypothesis, stage seconds) as run_pipeline does. It serves a
    caller that frees the audio once the features exist, as transcribe does,
    so that the samples are not live during the encoder.
    """
    t1 = time.perf_counter()
    enc = encoders.encode(model, fm.frames)
    t2 = time.perf_counter()
    hyp = _decode(model, decoder, enc)
    stages = {
        "frontend_s": frontend_seconds,
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
    durations = list(durations)
    if not durations:
        raise ValueError("durations must be non-empty")
    if any(b <= a for a, b in zip(durations, durations[1:])):
        raise ValueError(f"durations must be sorted ascending, got {durations}")
    _check_repeats(repeats)
    audios = [frontend.synth_audio(d, seed) for d in durations]
    runs = [[] for _ in durations]
    with _timed_section():
        for _ in range(repeats):
            for audio, audio_runs in zip(audios, runs):
                audio_runs.append(_tracked_run(model, decoder, audio))
    return BenchReport(
        [_sample(model, decoder, a, r) for a, r in zip(audios, runs)]
    )


def _check_repeats(repeats: int) -> None:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")


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
    """Largest whole-second duration whose predicted peak fits the budget."""
    if predict_peak_bytes(cfg, _frames_for_seconds(1)) > budget_bytes:
        raise ValueError(
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
