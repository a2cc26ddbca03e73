"""Acoustic front-end: WAV input, log-mel features, synthetic audio.

Fixed geometry throughout the package: 16 kHz mono, 25 ms Hann window
(400 samples), 10 ms hop (160 samples), 512-point FFT, 80 mel filters on the
HTK scale over 0..8000 Hz, natural log with floor 1e-10, then per-utterance
mean/variance normalization per feature.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np

from .errors import AudioFormatError, NumericDomainError, ShapeError
from .tensor import MIN_GEMM_ROWS, Tensor, _split

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
N_FFT = 512
N_MELS = 80
FMIN_HZ = 0.0
FMAX_HZ = 8000.0
LOG_FLOOR = 1e-10
# Frames per FFT and mel-projection batch, sized so the batch buffers stay in
# cache. A batch shorter than MIN_GEMM_ROWS is zero-padded to it, so a
# frame's features do not depend on the utterance length.
STFT_BATCH = 256
# Rows per block of the variance's sum of squares.
NORM_BLOCK = 512


@dataclass
class AudioBuffer:
    """Mono 16 kHz audio: float32 samples in [-1, 1], or int16 PCM16 samples
    as a WAV holds them, where v reads as float32(v) / 32768."""

    samples: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.samples, np.ndarray) and self.samples.dtype == np.int16):
            self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise AudioFormatError("audio must be a non-empty 1-D sample array")
        if self.samples.dtype == np.float32:
            peak = float(max(self.samples.max(), -self.samples.min()))
            if peak > 1.0:
                raise AudioFormatError(f"samples exceed [-1, 1] (peak {peak:.4g})")

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE

    def values(self, lo: int = 0, hi: int | None = None, out=None) -> np.ndarray:
        """float32 samples lo..hi, or samples in out's dtype (float32 or
        float64) when out is given. PCM16 is divided by 32768, which is
        exact in either, so a span's values are those of the whole array
        converted to float32 at once."""
        scale = 32768.0 if self.samples.dtype == np.int16 else 1.0
        dtype = np.float32 if out is None else out.dtype
        return np.divide(self.samples[lo:hi], scale, out=out, dtype=dtype)


@dataclass
class FeatureMatrix:
    """T x 80 log-mel features, one row per 10 ms hop."""

    frames: Tensor

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def num_frames_for(n_samples: int) -> int:
    """Frame count for n samples: 1 + floor((n - 400) / 160)."""
    if n_samples < WINDOW_SAMPLES:
        raise AudioFormatError(
            f"audio too short: {n_samples} samples < window {WINDOW_SAMPLES}"
        )
    return 1 + (n_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def read_wav(path) -> AudioBuffer:
    """Read a complete RIFF PCM16 mono 16 kHz file. Anything else, a file
    shorter than its data chunk declares included, is rejected."""
    try:
        with wave.open(str(path), "rb") as wf:
            rate = wf.getframerate()
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            n = wf.getnframes()
            raw = wf.readframes(n)
    except (wave.Error, EOFError, OSError) as exc:
        # the caller names the path; wave raises a bare EOFError when the
        # file ends inside its RIFF header or its fmt chunk
        reason = (getattr(exc, "strerror", None) or str(exc)
                  or "file ends before its RIFF and fmt headers are complete")
        raise AudioFormatError(f"not a readable RIFF wav file: {reason}") from exc
    except RuntimeError as exc:
        # wave raises a bare RuntimeError when a chunk it skips runs past
        # the end of the RIFF chunk
        raise AudioFormatError("not a readable RIFF wav file: corrupt chunk size") from exc
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"unsupported rate, expected {SAMPLE_RATE}, got {rate}")
    if channels != 1:
        raise AudioFormatError(f"expected mono audio, got {channels} channels")
    if width != 2:
        raise AudioFormatError(f"expected 16-bit PCM, got sample width {width}")
    if len(raw) % 2:
        raise AudioFormatError(
            f"PCM data ends mid-sample: {len(raw)} bytes is not a whole "
            "number of 16-bit samples"
        )
    if len(raw) < 2 * n:
        raise AudioFormatError(
            f"truncated WAV: the data chunk declares {n} samples, "
            f"the file holds {len(raw)} bytes of them"
        )
    return AudioBuffer(np.frombuffer(raw, dtype="<i2").astype(np.int16, copy=False))


def write_wav(path, audio: AudioBuffer) -> None:
    """Write PCM16 mono 16 kHz. Inverse of read_wav up to int16 rounding."""
    x = np.clip(np.rint(audio.values().astype(np.float64) * 32768.0), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(x.astype("<i2").tobytes())


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=1)
def _mel_filterbank() -> np.ndarray:
    """Triangular filters (N_MELS, N_FFT//2 + 1) over FFT bin center freqs."""
    edges_mel = np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_hz = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, bin_hz.size), dtype=np.float64)
    for m in range(N_MELS):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


@functools.lru_cache(maxsize=1)
def _hann_window() -> np.ndarray:
    n = np.arange(WINDOW_SAMPLES, dtype=np.float64)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / WINDOW_SAMPLES)


def log_mel_energies(audio: AudioBuffer) -> np.ndarray:
    """Unnormalized (T, 80) natural-log mel energies, floored at 1e-10.

    The threads split the batches; each part has its own batch buffers,
    the batch's samples among them, so no float copy of the whole audio
    exists. The samples are read straight into float64, exact for both
    sample types, so the windowed frames are those of a float32 read."""
    t_frames = num_frames_for(audio.samples.size)
    fb_t = _mel_filterbank().T
    win = _hann_window()
    out = np.empty((t_frames, N_MELS), dtype=np.float64)
    rows = min(STFT_BATCH, t_frames)
    bins = N_FFT // 2 + 1

    def part(b0: int, b1: int) -> None:
        span = np.empty(HOP_SAMPLES * (rows - 1) + WINDOW_SAMPLES, dtype=np.float64)
        # zero past the window, so rfft needs no padding copy
        windowed = np.zeros((rows, N_FFT), dtype=np.float64)
        spectrum = np.empty((rows, bins), dtype=np.complex128)
        power = np.empty((max(rows, MIN_GEMM_ROWS), bins), dtype=np.float64)
        for lo in range(b0 * STFT_BATCH, min(b1 * STFT_BATCH, t_frames), STFT_BATCH):
            hi = min(lo + STFT_BATCH, t_frames)
            n = hi - lo
            # frame f is samples[160 f : 160 f + 400], read through a strided view
            x = audio.values(HOP_SAMPLES * lo, HOP_SAMPLES * (hi - 1) + WINDOW_SAMPLES,
                             out=span[: HOP_SAMPLES * (n - 1) + WINDOW_SAMPLES])
            frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES]
            np.multiply(frames, win, out=windowed[:n, :WINDOW_SAMPLES])
            np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
            # re^2 + im^2, squared in place in the spectrum's float64 view
            sq = spectrum[:n].view(np.float64)
            np.square(sq, out=sq)
            p = power[:n]
            np.add(sq[:, 0::2], sq[:, 1::2], out=p)
            mel = out[lo:hi]
            if n < MIN_GEMM_ROWS:
                power[n:MIN_GEMM_ROWS] = 0.0
                mel[...] = np.matmul(power[:MIN_GEMM_ROWS], fb_t)[:n]
            else:
                np.matmul(p, fb_t, out=mel)
            np.maximum(mel, LOG_FLOOR, out=mel)
            np.log(mel, out=mel)

    _split(part, -(-t_frames // STFT_BATCH))
    return out


def log_mel(audio: AudioBuffer) -> FeatureMatrix:
    """Normalized log-mel features: per-feature zero mean / unit variance.

    A caller that hands over its only reference to the audio has the
    samples freed once the energies exist, before the features are made."""
    y = log_mel_energies(audio)
    del audio
    t = y.shape[0]
    # numpy's own mean/var sequence, with the mean taken and subtracted once.
    # The axis-0 sum adds rows in order, so the squares are summed in blocks
    # whose row 0 carries the running sum.
    y -= y.mean(axis=0)
    sq = np.zeros((min(NORM_BLOCK, t) + 1, N_MELS), dtype=np.float64)
    for lo in range(0, t, NORM_BLOCK):
        hi = min(lo + NORM_BLOCK, t)
        np.square(y[lo:hi], out=sq[1 : 1 + hi - lo])
        sq[0] = sq[: 1 + hi - lo].sum(axis=0)
    sigma = np.sqrt(sq[0] / t)
    feats = np.divide(y, sigma + 1e-10, out=np.empty(y.shape, dtype=np.float32))
    del y  # free the energies before the finite check builds its mask
    if not np.isfinite(feats).all():
        raise NumericDomainError("tensor values must be finite")
    return FeatureMatrix(frames=Tensor._wrap(feats))


def synth_audio(duration_s: float, seed: int) -> AudioBuffer:
    """Deterministic test signal: band-limited noise plus three drifting tones.

    Exactly round(duration_s * 16000) samples; bounded well inside [-1, 1]
    by construction.
    """
    if duration_s <= 0:
        raise ShapeError(f"duration must be positive, got {duration_s}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
    x = 0.3 * rng.uniform(-1.0, 1.0, size=n)
    for f0 in (220.0, 880.0, 2400.0):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        lfo = rng.uniform(0.1, 0.5)
        env = 0.5 + 0.5 * np.sin(2.0 * np.pi * lfo * t + rng.uniform(0.0, 2.0 * np.pi))
        x += 0.2 * env * np.sin(2.0 * np.pi * f0 * t + phase)
    return AudioBuffer(x.astype(np.float32))
