"""Acoustic front-end: WAV input, log-mel features, synthetic audio.

Fixed geometry throughout the package: 16 kHz mono, 25 ms Hann window
(400 samples), 10 ms hop (160 samples), 512-point FFT, 80 mel filters on the
HTK scale over 0..8000 Hz, natural log with floor 1e-10, then per-utterance
mean/variance normalization per feature.
"""

from __future__ import annotations

import functools
import os
import wave
import weakref
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
# Batches per piece of samples the front end reads at once (8192 frames,
# 2.6 MB of PCM16).
PIECE_BATCHES = 32
# Rows per block of the normalization's sums of squares and divisions.
NORM_BLOCK = 512


class WavSamples:
    """The PCM16 samples of a WAV file that read_wav has checked, left in the
    file: slicing reads the slice's span from it. The file stays open while
    this lives, so a rename over its path does not change what it reads."""

    dtype = np.dtype(np.int16)
    ndim = 1

    def __init__(self, f, offset: int, size: int):
        self._file, self._offset, self.size = f, offset, size
        weakref.finalize(self, f.close)

    def __getitem__(self, key: slice) -> np.ndarray:
        lo, hi, _ = key.indices(self.size)
        out = np.empty(max(hi - lo, 0), dtype="<i2")
        view, got = memoryview(out).cast("B"), 0
        try:
            self._file.seek(self._offset + 2 * lo)
            while got < out.nbytes:
                n = self._file.readinto(view[got:])
                if not n:
                    # cut short since read_wav checked it: the error
                    # read_wav would give the file now
                    held = os.fstat(self._file.fileno()).st_size - self._offset
                    _check_data_bytes(self.size, max(0, min(2 * self.size, held)))
                got += n
        except OSError as exc:
            raise AudioFormatError(f"not a readable RIFF wav file: {exc.strerror}") from exc
        return out.astype(np.int16, copy=False)


@dataclass
class AudioBuffer:
    """Mono 16 kHz audio: float32 samples in [-1, 1], or int16 PCM16 samples
    as a WAV holds them, where v reads as float32(v) / 32768. A WAV's
    samples may stay in the file (WavSamples); the front end reads them a
    piece at a time, and in-memory samples through a view of each piece."""

    samples: np.ndarray | WavSamples

    def __post_init__(self):
        if not (isinstance(self.samples, WavSamples) or (
                isinstance(self.samples, np.ndarray) and self.samples.dtype == np.int16)):
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

    @property
    def scale(self) -> float:
        """What a sample is divided by to read as float32: 32768 for PCM16."""
        return 32768.0 if self.samples.dtype == np.int16 else 1.0

    def values(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """float32 samples lo..hi. PCM16 is divided by 32768, which is
        exact, so a span's values are those of the whole array converted
        at once."""
        return np.divide(self.samples[lo:hi], self.scale, dtype=np.float32)


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
    """Check a RIFF PCM16 mono 16 kHz file and return its samples, left in
    the file (WavSamples). Anything else, a file shorter than its data chunk
    declares included, is rejected. The data bytes checked are those wave's
    readframes would return: the data chunk, cut at the end of the RIFF
    chunk and of the file."""
    try:
        # unbuffered, so every read of the samples asks the file itself
        f = open(path, "rb", buffering=0)
    except OSError as exc:
        raise AudioFormatError(f"not a readable RIFF wav file: {exc.strerror}") from exc
    try:
        try:
            with wave.open(f) as wf:
                rate = wf.getframerate()
                channels = wf.getnchannels()
                width = wf.getsampwidth()
                n = wf.getnframes()
                # wave stops reading at the data chunk's first byte
                data_start = f.tell()
            f.seek(4)
            riff_end = 8 + int.from_bytes(f.read(4), "little")
            held = min(2 * n, riff_end - data_start,
                       os.fstat(f.fileno()).st_size - data_start)
        except (wave.Error, EOFError, OSError) as exc:
            # the caller names the path; wave raises a bare EOFError when the
            # file ends inside its RIFF header or its fmt chunk
            reason = (getattr(exc, "strerror", None) or str(exc)
                      or "file ends before its RIFF and fmt headers are complete")
            raise AudioFormatError(f"not a readable RIFF wav file: {reason}") from exc
        except RuntimeError as exc:
            # wave raises a bare RuntimeError when a chunk it skips runs past
            # the end of the RIFF chunk
            raise AudioFormatError(
                "not a readable RIFF wav file: corrupt chunk size") from exc
        if rate != SAMPLE_RATE:
            raise AudioFormatError(f"unsupported rate, expected {SAMPLE_RATE}, got {rate}")
        if channels != 1:
            raise AudioFormatError(f"expected mono audio, got {channels} channels")
        if width != 2:
            raise AudioFormatError(f"expected 16-bit PCM, got sample width {width}")
        _check_data_bytes(n, held)
        return AudioBuffer(WavSamples(f, data_start, n))
    except BaseException:
        f.close()
        raise


def _check_data_bytes(n: int, held: int) -> None:
    """Reject a data chunk declaring n samples of which held bytes exist."""
    if held % 2:
        raise AudioFormatError(
            f"PCM data ends mid-sample: {held} bytes is not a whole "
            "number of 16-bit samples"
        )
    if held < 2 * n:
        raise AudioFormatError(
            f"truncated WAV: the data chunk declares {n} samples, "
            f"the file holds {held} bytes of them"
        )


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


def _write_energies(audio: AudioBuffer, head: np.ndarray, tail: np.ndarray) -> None:
    """The energies of frames [0, len(head)) into head and the rest into tail.

    The samples are read a piece of PIECE_BATCHES batches at a time, and the
    threads split each piece's batches. Each part takes its batch buffers
    from those of the parts done (so each thread's stay warm), or makes
    them. A frame is windowed straight from a strided view of the piece's
    samples, with the 1/32768 of PCM16 folded into the window: 32768 is a
    power of two, so the windowed frames are those of a float32 read."""
    t_frames, split = len(head) + len(tail), len(head)
    fb_t = _mel_filterbank().T
    win = _hann_window() / audio.scale
    rows = min(STFT_BATCH, t_frames)
    gemm_rows = max(rows, MIN_GEMM_ROWS)
    bins = N_FFT // 2 + 1
    piece_frames = PIECE_BATCHES * STFT_BATCH
    spare = []

    def part(b0: int, b1: int) -> None:
        try:
            buffers = spare.pop()
        except IndexError:
            # zero past the window, so rfft needs no padding copy
            buffers = (np.zeros((rows, N_FFT), dtype=np.float64),
                       np.empty((rows, bins), dtype=np.complex128),
                       np.empty((gemm_rows, bins), dtype=np.float64),
                       np.empty((gemm_rows, N_MELS), dtype=np.float64))
        windowed, spectrum, power, mel = buffers
        for lo in range(b0 * STFT_BATCH, min(b1 * STFT_BATCH, f1 - f0), STFT_BATCH):
            n = min(STFT_BATCH, f1 - f0 - lo)
            np.multiply(frames[lo : lo + n], win, out=windowed[:n, :WINDOW_SAMPLES])
            np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
            # re^2 + im^2, squared in place in the spectrum's float64 view
            sq = spectrum[:n].view(np.float64)
            np.square(sq, out=sq)
            np.add(sq[:, 0::2], sq[:, 1::2], out=power[:n])
            # a batch shorter than MIN_GEMM_ROWS is padded with zero rows
            m = max(n, MIN_GEMM_ROWS)
            power[n:m] = 0.0
            np.matmul(power[:m], fb_t, out=mel[:m])
            np.maximum(mel[:n], LOG_FLOOR, out=mel[:n])
            # frames f0 + lo ... f0 + lo + n: those before split go to
            # head, the rest to tail
            k = min(max(split - f0 - lo, 0), n)
            np.log(mel[:k], out=head[f0 + lo : f0 + lo + k])
            np.log(mel[k:n], out=tail[f0 + lo + k - split : f0 + lo + n - split])
        spare.append(buffers)

    for f0 in range(0, t_frames, piece_frames):
        f1 = min(f0 + piece_frames, t_frames)
        # frame f is samples[160 f : 160 f + 400]. The last piece runs to the
        # end, so every sample of a WAV is read, and a file cut short since
        # read_wav checked it fails as read_wav would.
        end = HOP_SAMPLES * (f1 - 1) + WINDOW_SAMPLES if f1 < t_frames else None
        pcm = audio.samples[HOP_SAMPLES * f0 : end]
        frames = np.lib.stride_tricks.sliding_window_view(pcm, WINDOW_SAMPLES)[::HOP_SAMPLES]
        _split(part, -(-(f1 - f0) // STFT_BATCH))
        del pcm, frames


def log_mel(audio: AudioBuffer) -> FeatureMatrix:
    """Normalized log-mel features: per-feature zero mean / unit variance.

    The float64 energies of the first T // 2 frames are written into the
    float32 features' own bytes and the rest into a half-size buffer, so
    the pass holds 8 bytes per cell. A caller that hands over its only
    reference to the audio has the samples freed once the energies exist."""
    t = num_frames_for(audio.samples.size)
    split = t // 2
    feats = np.empty((t, N_MELS), dtype=np.float32)
    head = feats.reshape(-1).view(np.float64)[: split * N_MELS].reshape(split, N_MELS)
    # row 0 carries the sums over head into those over the tail
    tail = np.empty((t - split + 1, N_MELS), dtype=np.float64)
    _write_energies(audio, head, tail[1:])
    del audio
    # numpy's own mean/var sequence, with the mean taken and subtracted once.
    # The axis-0 sum adds rows in order, so tail row 0 and the first row of
    # each block of squares carry the running sum.
    if split:
        tail[0] = head.sum(axis=0)
    mean = (tail if split else tail[1:]).sum(axis=0) / t
    # (first row, energies) of each block, in row order
    blocks = [(base + lo, y[lo : lo + NORM_BLOCK])
              for y, base in ((head, 0), (tail[1:], split))
              for lo in range(0, len(y), NORM_BLOCK)]
    sq = np.zeros((min(NORM_BLOCK, t) + 1, N_MELS), dtype=np.float64)
    for _, y in blocks:
        y -= mean
        np.square(y, out=sq[1 : 1 + len(y)])
        sq[0] = sq[: 1 + len(y)].sum(axis=0)
    denom = np.sqrt(sq[0] / t) + 1e-10
    # In row order: feature row r overlaps only energy row r // 2, which
    # is read by then. numpy copies a block whose rows its output overlaps
    # (the first one) before writing.
    for r, y in blocks:
        np.divide(y, denom, out=feats[r : r + len(y)])
    del blocks, head, tail  # free the tail before the finite check builds its mask
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
