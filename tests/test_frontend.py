"""Front-end tests: framing law, mel geometry, wav round-trips, synth audio."""

import gc
import math
import os
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from lfab import frontend, tensor
from lfab.errors import AudioFormatError
from lfab.frontend import AudioBuffer

PIECE_FRAMES = frontend.PIECE_BATCHES * frontend.STFT_BATCH


def log_mel_energies(audio):
    """Unnormalized (T, 80) natural-log mel energies, floored at 1e-10, as
    log_mel writes them before normalizing."""
    out = np.empty((frontend.num_frames_for(audio.samples.size), 80))
    frontend._write_energies(audio, out, out[len(out):])
    return out


def log_mel_energies_reference(audio):
    """Fancy-indexed STFT of every frame, then one mel GEMM at least as tall
    as the 4096-frame batches of the original front end (zero rows pad a
    shorter input): the bits log_mel_energies must give every frame."""
    x = audio.samples.astype(np.float64)
    t_frames = frontend.num_frames_for(x.size)
    fb = frontend._mel_filterbank()
    win = frontend._hann_window()
    idx = np.arange(t_frames)[:, None] * 160
    frames = x[idx + np.arange(400)] * win
    spectrum = np.fft.rfft(frames, n=512, axis=1)
    power = np.zeros((max(t_frames, 4096), 257))
    power[:t_frames] = spectrum.real**2 + spectrum.imag**2
    return np.log(np.maximum((power @ fb.T)[:t_frames], 1e-10))


def audio_with_frames(t_frames, seed):
    """Synthetic audio of exactly t_frames frames plus a few spare samples."""
    n = 400 + 160 * (t_frames - 1) + seed % 160
    audio = frontend.synth_audio(n / 16000, seed)
    assert frontend.num_frames_for(audio.samples.size) == t_frames
    return audio


def write_pcm16(path, ints, rate=16000, channels=1):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(ints, dtype="<i2").tobytes())


class TestFraming:
    def test_frame_count_formula_sweep(self):
        # oracle: slide a 400-sample window by 160 and count placements
        for n in range(400, 4001, 37):
            count, start = 0, 0
            while start + 400 <= n:
                count += 1
                start += 160
            assert frontend.num_frames_for(n) == count
            assert frontend.num_frames_for(n) == 1 + (n - 400) // 160

    def test_feature_matrix_shape(self):
        audio = frontend.synth_audio(1.0, seed=0)
        feats = frontend.log_mel(audio)
        assert feats.frames.shape == (frontend.num_frames_for(16000), 80)
        assert feats.num_frames == 98

    def test_too_short_audio_raises(self):
        with pytest.raises(AudioFormatError, match="audio too short"):
            frontend.log_mel(AudioBuffer(np.zeros(399, dtype=np.float32)))


class TestLogMel:
    def test_silence_hits_log_floor_before_normalization(self):
        audio = AudioBuffer(np.zeros(16000, dtype=np.float32))
        y = log_mel_energies(audio)
        np.testing.assert_array_equal(y, math.log(1e-10))

    def test_1khz_sine_peaks_at_nearest_filter(self):
        t = np.arange(16000) / 16000.0
        audio = AudioBuffer((0.5 * np.sin(2 * np.pi * 1000.0 * t)).astype(np.float32))
        y = log_mel_energies(audio)
        got = int(np.argmax(y.mean(axis=0)))
        # 1 kHz is FFT bin 32 exactly; the filter weighting that bin most wins
        bin_1khz = round(1000.0 * frontend.N_FFT / frontend.SAMPLE_RATE)
        want = int(np.argmax(frontend._mel_filterbank()[:, bin_1khz]))
        assert got == want

    def test_htk_mel_formula(self):
        assert frontend.hz_to_mel(1000.0) == pytest.approx(2595.0 * math.log10(1 + 1000 / 700))
        assert frontend.mel_to_hz(frontend.hz_to_mel(437.5)) == pytest.approx(437.5)

    def test_filterbank_covers_band_without_gaps(self):
        fb = frontend._mel_filterbank()
        assert fb.shape == (80, 257)
        # every filter has weight, and interior bins in 0..8 kHz are covered
        assert (fb.max(axis=1) > 0).all()
        bin_hz = np.arange(257) * (16000 / 512)
        peaks = bin_hz[fb.argmax(axis=1)]  # where each filter peaks
        interior = (bin_hz > peaks[0]) & (bin_hz < peaks[-1])
        assert (fb.sum(axis=0)[interior] > 0).all()

    def test_normalization_moments(self):
        audio = frontend.synth_audio(2.0, seed=5)
        z = frontend.log_mel(audio).frames.array.astype(np.float64)
        assert np.abs(z.mean(axis=0)).max() < 1e-5
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-3

    def test_batched_stft_matches_unbatched(self):
        # the head straddles the FFT batch boundary; the long run spans
        # many FFT batches
        audio = frontend.synth_audio(45.0, seed=9)
        y = log_mel_energies(audio)
        n = frontend.STFT_BATCH + 44
        head = log_mel_energies(AudioBuffer(audio.samples[: 400 + 160 * (n - 1)]))
        assert y[:n].tobytes() == head.tobytes()
        # frame f + 4096 of the long run is frame f of the cut audio
        cut = AudioBuffer(audio.samples[160 * 4096 :])
        assert y[4096:].tobytes() == log_mel_energies(cut).tobytes()

    @pytest.mark.parametrize("t_frames", [1, 15, 4097, 4111, 2 * 4096 + 1])
    def test_prefix_frames_keep_their_bits(self, t_frames):
        # a batch of fewer than MIN_GEMM_ROWS frames is padded, so a prefix
        # of the audio gets the same features as the whole
        audio = audio_with_frames(t_frames + 40, seed=t_frames)
        whole = log_mel_energies(audio)
        prefix = AudioBuffer(audio.samples[: 400 + 160 * (t_frames - 1)])
        assert log_mel_energies(prefix).tobytes() == whole[:t_frames].tobytes()

    @pytest.mark.parametrize("t_frames", [
        1, 2, 255, 256, 257, 527, 4095, 4096, 4097, 4353,
    ])
    def test_energies_bits_match_reference(self, t_frames):
        audio = audio_with_frames(t_frames, seed=t_frames)
        want = log_mel_energies_reference(audio)
        assert log_mel_energies(audio).tobytes() == want.tobytes()

    def test_normalized_bits_match_out_of_place_formula(self):
        audio = audio_with_frames(frontend.STFT_BATCH + 1, seed=4)
        y = log_mel_energies_reference(audio)
        z = (y - y.mean(axis=0)) / (np.sqrt(y.var(axis=0)) + 1e-10)
        got = frontend.log_mel(audio).frames.array
        assert got.tobytes() == z.astype(np.float32).tobytes()

    @pytest.mark.parametrize("t_frames", [
        1, 2, 3, 17, 255, PIECE_FRAMES - 1, PIECE_FRAMES + 1, 4097, 60000,
    ])
    def test_in_place_normalization_matches_mean_var(self, t_frames, monkeypatch):
        # the energies of rows [0, T // 2) sit in the features' own bytes,
        # the rest in the half buffer (at T = 1, every row); the running
        # sums cross from one to the other in row order
        rng = np.random.default_rng(t_frames)
        y = rng.normal(-6.0, 4.0, size=(t_frames, frontend.N_MELS))

        def fill(audio, head, tail):
            assert len(head) == t_frames // 2
            head[...] = y[: len(head)]
            tail[...] = y[len(head):]

        monkeypatch.setattr(frontend, "_write_energies", fill)
        z = (y - y.mean(axis=0)) / (np.sqrt(y.var(axis=0)) + 1e-10)
        audio = AudioBuffer(np.zeros(400 + 160 * (t_frames - 1), dtype=np.int16))
        got = frontend.log_mel(audio).frames.array
        assert got.tobytes() == z.astype(np.float32).tobytes()


class TestThreads:
    """The threads split the FFT and mel batches; every frame keeps its
    bits at any worker count."""

    @pytest.mark.parametrize("t_frames", [1, 13, 998, 4101])
    def test_log_mel_bits_at_any_worker_count(self, t_frames, monkeypatch):
        audio = audio_with_frames(t_frames, seed=t_frames)
        got = set()
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(tensor, "_WORKERS", workers)
            got.add(frontend.log_mel(audio).frames.array.tobytes())
        assert len(got) == 1

    def test_log_mel_bits_at_600_seconds(self, monkeypatch):
        audio = frontend.synth_audio(600.0, seed=11)
        got = set()
        for workers in (1, max(2, tensor._WORKERS)):
            monkeypatch.setattr(tensor, "_WORKERS", workers)
            got.add(frontend.log_mel(audio).frames.array.tobytes())
        assert len(got) == 1

    def test_wav_features_match_float32_audio(self, tmp_path, monkeypatch):
        # the PCM16 path, read from the file a piece at a time, gives the
        # bits of the same samples as float32 held in memory
        path = tmp_path / "u.wav"
        t_frames = PIECE_FRAMES + frontend.STFT_BATCH * 3 + 5
        frontend.write_wav(path, audio_with_frames(t_frames, seed=8))
        pcm = frontend.read_wav(path)
        want = frontend.log_mel(AudioBuffer(pcm.values())).frames.array.tobytes()
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(tensor, "_WORKERS", workers)
            assert frontend.log_mel(pcm).frames.array.tobytes() == want


class TestMemory:
    # bytes the first pass leaves cached, within this bound: the mel
    # filterbank (164 KB), the Hann window and rfft's plan (126 KB)
    CACHED = 2**19

    def test_log_mel_heap_peak(self, monkeypatch):
        # no full-size buffer beyond the features and the half buffer
        monkeypatch.setattr(tensor, "_WORKERS", 1)
        self.check_heap_peak(1)

    def test_log_mel_heap_peak_at_n_workers(self, monkeypatch):
        # each worker's part has its own batch buffers
        workers = max(2, tensor._WORKERS)
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        self.check_heap_peak(workers)

    def test_600s_wav_pass_holds_no_whole_file_pcm(self, tmp_path, monkeypatch):
        # read_wav leaves the samples in the file and log_mel reads one
        # piece at a time: the file's PCM16 whole (2 bytes per sample, 40
        # per cell) would put the peak 19 MB over the bound, as would a
        # float64 copy of the energies next to the features (4 bytes per
        # cell)
        workers = max(2, tensor._WORKERS)
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        path = tmp_path / "long.wav"
        frontend.write_wav(path, frontend.synth_audio(600.0, seed=3))
        cells = frontend.num_frames_for(600 * frontend.SAMPLE_RATE) * frontend.N_MELS
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frontend.log_mel(frontend.read_wav(path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        piece = 2 * (frontend.HOP_SAMPLES * (PIECE_FRAMES - 1) + frontend.WINDOW_SAMPLES)
        assert peak <= self.heap_bound(workers, cells, piece=piece)

    @staticmethod
    def batch_buffers(workers):
        """Per worker: the windowed frames, the complex spectrum (squared in
        place), the power and mel rows, and numpy's ufunc buffers (three
        operands of np.getbufsize() float64s)."""
        rows, bins = frontend.STFT_BATCH, frontend.N_FFT // 2 + 1
        ufunc = 3 * 8 * np.getbufsize()
        return workers * (8 * rows * frontend.N_FFT + 16 * rows * bins
                          + 8 * rows * (bins + frontend.N_MELS) + ufunc)

    @classmethod
    def heap_bound(cls, workers, cells, piece=0):
        """The larger of the two phases' heaps, plus CACHED. Energies: the
        features and the half buffer (8 bytes per cell, and the half
        buffer's row of sums), the piece of PCM read (none for audio in
        memory) and the batch buffers. Normalization: 8 bytes per cell and
        one block of scratch: the block of squares, numpy's copy of the
        first block (whose rows its output overlaps) and one set of ufunc
        buffers (the features' cast)."""
        row = 8 * frontend.N_MELS
        cells_bytes = 8 * cells + row
        energies = cells_bytes + piece + cls.batch_buffers(workers)
        norm = cells_bytes + (2 * frontend.NORM_BLOCK + 1) * row + 3 * 8 * np.getbufsize()
        return max(energies, norm) + cls.CACHED

    @classmethod
    def check_heap_peak(cls, workers):
        audio = frontend.synth_audio(120.0, seed=3)
        t = frontend.num_frames_for(audio.samples.size)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frontend.log_mel(audio)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= cls.heap_bound(workers, t * frontend.N_MELS)


class TestWavIO:
    def test_pcm_scaling_max_positive(self, tmp_path):
        f = tmp_path / "one.wav"
        write_pcm16(f, [32767, 0, -32768, 0])
        audio = frontend.read_wav(f)
        assert audio.samples.dtype == np.int16  # left in the file as PCM16
        assert audio.values()[0] == np.float32(32767 / 32768)
        assert audio.values()[2] == np.float32(-1.0)

    def test_every_pcm_value_scales_like_float32_division(self, tmp_path):
        ints = np.arange(-32768, 32768, dtype=np.int64)
        f = tmp_path / "all.wav"
        write_pcm16(f, ints)
        want = ints.astype("<i2").astype(np.float32) / 32768.0
        audio = frontend.read_wav(f)
        assert audio.values().tobytes() == want.tobytes()
        # and any span, as the front end's batches read them
        for lo, hi in ((0, 1), (1000, 41200), (65535, 65536), (32768, None)):
            assert audio.values(lo, hi).tobytes() == want[lo:hi].tobytes()

    def test_wrong_rate_message(self, tmp_path):
        f = tmp_path / "r8k.wav"
        write_pcm16(f, [0] * 800, rate=8000)
        with pytest.raises(AudioFormatError, match="unsupported rate, expected 16000"):
            frontend.read_wav(f)

    def test_stereo_rejected(self, tmp_path):
        f = tmp_path / "st.wav"
        write_pcm16(f, [0, 0, 0, 0], channels=2)
        with pytest.raises(AudioFormatError, match="mono"):
            frontend.read_wav(f)

    def test_garbage_rejected(self, tmp_path):
        f = tmp_path / "bad.wav"
        f.write_bytes(b"RIFFnope")
        with pytest.raises(AudioFormatError):
            frontend.read_wav(f)

    def test_chunk_running_past_riff_end_rejected(self, tmp_path):
        # a fmt chunk size past the end of the file: wave's chunk skip
        # raises a bare RuntimeError, which must not escape as exit 5
        f = tmp_path / "chunk.wav"
        write_pcm16(f, [0] * 800)
        data = bytearray(f.read_bytes())
        data[16:20] = struct.pack("<I", 2**31)
        f.write_bytes(bytes(data))
        with pytest.raises(AudioFormatError, match="corrupt chunk size"):
            frontend.read_wav(f)

    def test_odd_pcm_byte_count_rejected(self, tmp_path):
        f = tmp_path / "odd.wav"
        write_pcm16(f, [0] * 800)
        f.write_bytes(f.read_bytes()[:-1])
        with pytest.raises(AudioFormatError, match="ends mid-sample: 1599 bytes"):
            frontend.read_wav(f)

    def test_samples_stay_in_the_file(self, tmp_path):
        f = tmp_path / "kept.wav"
        write_pcm16(f, np.arange(-1200, 1200, 2))
        audio = frontend.read_wav(f)
        assert isinstance(audio.samples, frontend.WavSamples)
        assert audio.samples.size == 1200
        assert audio.samples[5:8].tolist() == [-1190, -1188, -1186]

    def test_rename_over_the_file_keeps_the_samples_read_wav_checked(self, tmp_path):
        f, other = tmp_path / "a.wav", tmp_path / "b.wav"
        frontend.write_wav(f, frontend.synth_audio(0.5, seed=1))
        frontend.write_wav(other, frontend.synth_audio(0.5, seed=2))
        want = frontend.log_mel(frontend.read_wav(f)).frames.array.tobytes()
        audio = frontend.read_wav(f)
        os.replace(other, f)
        assert frontend.log_mel(audio).frames.array.tobytes() == want

    @pytest.mark.parametrize("held, message", [
        (0, "declares 8000 samples, the file holds 0 bytes"),
        (7777, "ends mid-sample: 7777 bytes"),
        (15998, "declares 8000 samples, the file holds 15998 bytes"),
    ])
    def test_file_cut_after_read_wav_fails_as_read_wav_would(self, tmp_path, held, message):
        f = tmp_path / "cut.wav"
        frontend.write_wav(f, frontend.synth_audio(0.5, seed=1))
        audio = frontend.read_wav(f)
        with open(f, "r+b") as fh:
            fh.truncate(44 + held)
        with pytest.raises(AudioFormatError, match=message):
            frontend.log_mel(audio)
        with pytest.raises(AudioFormatError, match=message):
            frontend.read_wav(f)

    def test_round_trip_data_chunk_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "src.wav"
        ints = rng.integers(-32768, 32768, size=2048)
        write_pcm16(src, ints)
        back = tmp_path / "back.wav"
        frontend.write_wav(back, frontend.read_wav(src))
        with wave.open(str(src)) as a, wave.open(str(back)) as b:
            assert a.readframes(a.getnframes()) == b.readframes(b.getnframes())


class TestAudioBuffer:
    def test_peak_check_covers_both_signs(self):
        AudioBuffer(np.array([1.0, -1.0, 0.5], dtype=np.float32))
        for samples, peak in (([0.5, -2.0, 1.5], "2"), ([1.25, -0.5], "1.25")):
            with pytest.raises(AudioFormatError, match=r"samples exceed \[-1, 1\] "
                               rf"\(peak {peak}\)"):
                AudioBuffer(np.array(samples, dtype=np.float32))


class TestSynthAudio:
    def test_sample_count_is_rounded(self):
        assert frontend.synth_audio(1.0, 0).samples.size == 16000
        assert frontend.synth_audio(0.12503, 0).samples.size == round(0.12503 * 16000)

    def test_bounded_and_deterministic(self):
        a = frontend.synth_audio(3.0, seed=42)
        b = frontend.synth_audio(3.0, seed=42)
        c = frontend.synth_audio(3.0, seed=43)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert np.abs(a.samples).max() <= 1.0
        assert not np.array_equal(a.samples, c.samples)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(Exception):
            frontend.synth_audio(0.0, 1)
