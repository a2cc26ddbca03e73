"""End-to-end command tests driven through cli.main."""

import json
import struct
import weakref

import numpy as np
import pytest

from lfab import cli, encoders, frontend, metrics
from lfab.tensor import Tensor
from lfab.weights import read_weights_file, serialize_weights, write_weights_file

# bench CSV columns that hold seconds, so differ from run to run
TIMING_COLUMNS = {"wall_s", "rtf", "frontend_s", "encoder_s", "decoder_s"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def tone_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "tone.wav"
    frontend.write_wav(path, frontend.synth_audio(2.0, seed=7))
    return str(path)


@pytest.fixture(scope="module")
def silence_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "silence.wav"
    samples = np.zeros(2 * frontend.SAMPLE_RATE, dtype=np.float32)
    frontend.write_wav(path, frontend.AudioBuffer(samples))
    return str(path)


class TestConfigResolution:
    def test_every_preset_builds_a_valid_config(self):
        for name in cli.PRESETS:
            rc = cli.resolve_run_config(name)
            assert rc.preset == name
            assert rc.encoder.family in encoders.FAMILIES

    def test_table2_presets_land_near_target_sizes(self):
        targets = {
            "table2-quartznet2": 120e6,
            "table2-contextnet": 140e6,
            "table2-conformer": 120e6,
            "table2-fastconformer": 114e6,
        }
        for name, target in targets.items():
            cfg = cli.resolve_run_config(name).encoder
            count = encoders.expected_parameter_count(cfg)
            assert abs(count - target) / target < 0.15, (name, count)

    def test_json_file_equivalent_to_inline_dict(self, tmp_path):
        raw = dict(cli.PRESETS["toy-conformer"], seed=9, budget_bytes=12345)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        rc = cli.resolve_run_config(str(path))
        assert rc.preset is None
        assert rc.seed == 9
        assert rc.budget_bytes == 12345
        assert rc.encoder == cli.resolve_run_config("toy-conformer").encoder

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "conv_only", "depth": 3}))
        with pytest.raises(cli.ConfigError, match="depth"):
            cli.resolve_run_config(str(path))

    def test_attention_requires_both_head_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "conformer_full", "heads": 4}))
        with pytest.raises(cli.ConfigError, match="head_dim"):
            cli.resolve_run_config(str(path))

    def test_bad_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(cli.ConfigError):
            cli.resolve_run_config(str(path))


class TestTypedConfigValidation:
    """Wrongly typed or out-of-range config values exit 3 and name the key."""

    @pytest.mark.parametrize("base, key, value", [
        ("toy-fastconformer", "heads", "4"),  # was exit 5, TypeError
        ("toy-contextnet", "se_reduction", 0),  # was exit 5, ZeroDivisionError
        ("toy-fastconformer", "ff_expansion", 0),  # was exit 2
        ("toy-contextnet", "num_blocks", True),  # was exit 3, "True not divisible"
        ("toy-quartznet2", "model_dim", 64.0),
        ("toy-fastconformer", "left_context", -1),
        ("toy-citrinet", "kernel_sizes", [5, "3", 7, 5, 9, 5, 7, 3]),
        ("toy-contextnet", "alpha", float("nan")),
        ("toy-fastconformer-gt", "use_global_token", 1),
        ("toy-quartznet2", "seed", -1),
        ("toy-quartznet2", "budget_bytes", True),
    ])
    def test_gen_weights_exits_3(self, capsys, tmp_path, base, key, value):
        raw = dict(cli.PRESETS[base], **{key: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "gen-weights", "--config", str(path),
                           "--out", str(tmp_path / "w.lfwb"))
        assert code == 3, err
        assert key in err and "must be" in err
        assert not (tmp_path / "w.lfwb").exists()

    @pytest.mark.parametrize("command, extra", [
        ("transcribe", ["--audio"]),
        ("bench", ["--durations", "1", "--out"]),
        ("gen-weights", ["--out"]),
    ])
    def test_negative_seed_flag_exits_3(self, capsys, tmp_path, tone_wav, command, extra):
        target = tone_wav if command == "transcribe" else str(tmp_path / "out")
        code, out, err = run(capsys, command, "--config", "toy-quartznet2",
                             "--seed", "-1", *extra, target)
        assert code == 3, err
        assert "--seed must be" in err and out == ""
        assert not (tmp_path / "out").exists()

    def test_zero_context_is_valid(self):
        raw = dict(cli.PRESETS["toy-fastconformer"], left_context=0, right_context=0)
        assert cli.encoder_config_from_dict(raw).attention.left_context == 0


class TestTranscribe:
    def test_single_wav_prints_text_and_timing(self, capsys, tone_wav):
        code, out, err = run(
            capsys, "transcribe", "--config", "toy-quartznet2",
            "--audio", tone_wav, "--decoder", "ctc",
        )
        assert code == 0
        assert out.endswith("\n")
        assert "timing frontend=" in err and "decoder=" in err

    def test_same_seed_twice_identical_stdout(self, capsys, tone_wav):
        args = ("transcribe", "--config", "toy-quartznet2", "--seed", "3",
                "--audio", tone_wav, "--decoder", "rnnt")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_silence_with_blank_forcing_weights_is_empty(
        self, capsys, silence_wav, tmp_path
    ):
        rc = cli.resolve_run_config("toy-quartznet2")
        model = cli.build_model(rc, seed=0)
        loaded = dict(model.weights)
        w = np.zeros(loaded["head.ctc.w"].shape, dtype=np.float32)
        b = np.zeros(loaded["head.ctc.b"].shape, dtype=np.float32)
        b[-1] = 1.0  # blank row wins every frame
        loaded["head.ctc.w"] = Tensor(w)
        loaded["head.ctc.b"] = Tensor(b)
        wpath = tmp_path / "blank.lfwb"
        write_weights_file(wpath, loaded)
        code, out, _ = run(
            capsys, "transcribe", "--config", "toy-quartznet2",
            "--weights", str(wpath), "--audio", silence_wav,
        )
        assert code == 0
        assert out == "\n"

    def test_manifest_gives_one_line_per_entry_in_order(
        self, capsys, tmp_path, monkeypatch
    ):
        texts = []
        for i in range(3):
            frontend.write_wav(tmp_path / f"u{i}.wav",
                               frontend.synth_audio(1.0 + i, seed=i))
        with open(tmp_path / "m.json", "w") as f:
            for i in range(3):
                f.write(json.dumps({
                    "audio_filepath": f"u{i}.wav",
                    "duration": 1.0 + i,
                    "text": "ignored",
                }) + "\n")
        for i in range(3):
            code, out, _ = run(
                capsys, "transcribe", "--config", "toy-quartznet2",
                "--audio", str(tmp_path / f"u{i}.wav"),
            )
            assert code == 0
            texts.append(out)
        # manifest paths resolve against the manifest's directory, not cwd
        monkeypatch.chdir(tmp_path.parent)
        code, out, _ = run(
            capsys, "transcribe", "--config", "toy-quartznet2",
            "--manifest", str(tmp_path / "m.json"),
        )
        assert code == 0
        assert out == "".join(texts)
        assert out.count("\n") == 3

    def test_samples_freed_before_encode(self, capsys, tone_wav, monkeypatch):
        samples, alive_at_encode = [], []
        read_wav, encode = frontend.read_wav, encoders.encode

        def tracked_read(path):
            audio = read_wav(path)
            samples.append(weakref.ref(audio.samples))
            return audio

        def checked_encode(model, feats):
            alive_at_encode.append(samples[-1]() is not None)
            return encode(model, feats)

        monkeypatch.setattr(frontend, "read_wav", tracked_read)
        monkeypatch.setattr(encoders, "encode", checked_encode)
        for decoder in ("ctc", "rnnt"):
            code, _, _ = run(capsys, "transcribe", "--config", "toy-quartznet2",
                             "--audio", tone_wav, "--decoder", decoder)
            assert code == 0
        assert alive_at_encode == [False, False]

    def test_weights_file_matches_seeded_build(self, capsys, tone_wav, tmp_path):
        wpath = tmp_path / "w.lfwb"
        assert run(capsys, "gen-weights", "--config", "toy-quartznet2",
                   "--seed", "5", "--out", str(wpath))[0] == 0
        _, seeded, _ = run(
            capsys, "transcribe", "--config", "toy-quartznet2", "--seed", "5",
            "--audio", tone_wav,
        )
        _, from_file, _ = run(
            capsys, "transcribe", "--config", "toy-quartznet2",
            "--weights", str(wpath), "--audio", tone_wav,
        )
        assert from_file == seeded


class TestGenWeights:
    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.lfwb", tmp_path / "b.lfwb"
        for path in (a, b):
            code, _, _ = run(capsys, "gen-weights", "--config",
                             "toy-contextnet", "--seed", "2",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        a, b = tmp_path / "a.lfwb", tmp_path / "b.lfwb"
        run(capsys, "gen-weights", "--config", "toy-contextnet",
            "--seed", "2", "--out", str(a))
        run(capsys, "gen-weights", "--config", "toy-contextnet",
            "--seed", "3", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_generated_file_reloads_through_build(self, capsys, tmp_path):
        wpath = tmp_path / "w.lfwb"
        run(capsys, "gen-weights", "--config", "toy-conformer", "--seed", "4",
            "--out", str(wpath))
        rc = cli.resolve_run_config("toy-conformer")
        model = cli.build_model(rc, seed=0, weights_path=str(wpath))
        assert serialize_weights(model.weights) == wpath.read_bytes()


class TestBench:
    def test_csv_shape_and_header(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "bench", "--config", "toy-quartznet2",
            "--durations", "1,2,3", "--repeats", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("duration_s,wall_s,rtf,frontend_s,encoder_s,decoder_s,"
                            "predicted_peak_bytes,measured_peak_bytes,decoder")
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1.0", "2.0", "3.0"]

    def test_value_columns_deterministic_across_runs(self, capsys, tmp_path):
        picks = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(capsys, "bench", "--config", "toy-quartznet2", "--seed", "1",
                "--durations", "1,2", "--repeats", "1", "--out", str(out),
                "--decoder", "rnnt")
            rows = [ln.split(",") for ln in out.read_text().splitlines()]
            # drop the timing-dependent columns: wall_s, rtf and the stages
            keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
            picks.append([[r[i] for i in keep] for r in rows])
        assert picks[0] == picks[1]

    def test_rerun_overwrites_atomically(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        out.write_text("garbage")
        code, _, _ = run(
            capsys, "bench", "--config", "toy-quartznet2",
            "--durations", "60,30", "--repeats", "1", "--out", str(out),
        )
        assert code == 2  # unsorted durations fail before any write
        assert out.read_text() == "garbage"
        code, _, _ = run(
            capsys, "bench", "--config", "toy-quartznet2",
            "--durations", "1", "--repeats", "1", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("duration_s,")
        assert not list(tmp_path.glob("*.tmp"))

    def test_bad_duration_list(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bench", "--config", "toy-quartznet2",
            "--durations", "1,zap", "--repeats", "1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "zap" in err


class TestMaxLength:
    def parse(self, out):
        seconds, minutes = out.split()
        return int(seconds), float(minutes)

    def test_output_parses_as_two_numbers(self, capsys):
        code, out, _ = run(capsys, "max-length", "--config",
                           "toy-quartznet2", "--budget-bytes", "100000000")
        assert code == 0
        seconds, minutes = self.parse(out)
        assert minutes == round(seconds / 60, 2)

    def test_full_attention_smallest_at_equal_budget(self, capsys):
        budget = str(2**26)
        results = {}
        for name in ("toy-quartznet2", "toy-contextnet", "toy-citrinet",
                     "toy-conformer", "toy-fastconformer"):
            code, out, _ = run(capsys, "max-length", "--config", name,
                               "--budget-bytes", budget)
            assert code == 0
            results[name] = self.parse(out)[0]
        full = results.pop("toy-conformer")
        assert all(full < v for v in results.values()), results

    def test_config_budget_key_is_the_default(self, capsys, tmp_path):
        raw = dict(cli.PRESETS["toy-quartznet2"], budget_bytes=100000000)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        _, from_file, _ = run(capsys, "max-length", "--config", str(path))
        _, from_flag, _ = run(capsys, "max-length", "--config",
                              "toy-quartznet2", "--budget-bytes", "100000000")
        assert from_file == from_flag


class TestScore:
    def write(self, tmp_path, ref, hyp):
        r, h = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        r.write_text(ref)
        h.write_text(hyp)
        return str(r), str(h)

    def test_identical_files_score_zero(self, capsys, tmp_path):
        r, h = self.write(tmp_path, "the quick brown fox\n",
                          "the quick brown fox\n")
        code, out, _ = run(capsys, "score", "--ref-file", r, "--hyp-file", h)
        assert code == 0
        assert out == "0.00\n"

    def test_one_sub_in_three_words(self, capsys, tmp_path):
        r, h = self.write(tmp_path, "a b c\n", "a x c\n")
        code, out, _ = run(capsys, "score", "--ref-file", r, "--hyp-file", h)
        assert code == 0
        assert out == "33.33\n"

    def test_matches_wer_module(self, capsys, tmp_path):
        ref = "Hello, World! It's a test.\n"
        hyp = "hello world its the test\n"
        r, h = self.write(tmp_path, ref, hyp)
        _, out, _ = run(capsys, "score", "--ref-file", r, "--hyp-file", h)
        assert out.strip() == f"{metrics.wer(ref, hyp).wer * 100:.2f}"

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "score", "--ref-file",
                           str(tmp_path / "nope.txt"), "--hyp-file",
                           str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error:" in err


class TestManifestStats:
    def test_reproduces_known_row(self, capsys, tmp_path):
        durations_min = [6.89, 29.53] + [16.413333333333334] * 9
        path = tmp_path / "m.json"
        with open(path, "w") as f:
            for i, minutes in enumerate(durations_min):
                f.write(json.dumps({
                    "audio_filepath": f"talk{i}.wav",
                    "duration": minutes * 60.0,
                    "text": "t",
                }) + "\n")
        code, out, _ = run(capsys, "manifest-stats", "--manifest", str(path))
        assert code == 0
        assert out == "count=11 min_min=6.89 max_min=29.53 mean_min=16.74\n"

    def test_bad_manifest_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{broken\n")
        code, _, err = run(capsys, "manifest-stats", "--manifest", str(path))
        assert code == 2
        assert "line 1" in err


class TestExitCodes:
    def test_bad_audio_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav")
        code, _, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                           "--audio", str(bad))
        assert code == 2
        assert "error:" in err

    def test_bad_config_is_3(self, capsys, tone_wav):
        code, _, _ = run(capsys, "transcribe", "--config", "no-such",
                         "--audio", tone_wav)
        assert code == 3

    def test_corrupt_weights_magic_is_4(self, capsys, tone_wav, tmp_path):
        bad = tmp_path / "bad.lfwb"
        bad.write_bytes(b"XXXX\x00\x00\x00\x00")
        code, _, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                           "--weights", str(bad), "--audio", tone_wav)
        assert code == 4
        assert "magic" in err

    def test_unused_weight_entries_is_4(self, capsys, tone_wav, tmp_path):
        rc = cli.resolve_run_config("toy-quartznet2")
        loaded = dict(cli.build_model(rc, seed=0).weights)
        loaded["leftover.w"] = Tensor.zeros((2, 2))
        wpath = tmp_path / "extra.lfwb"
        write_weights_file(wpath, loaded)
        code, _, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                           "--weights", str(wpath), "--audio", tone_wav)
        assert code == 4
        assert "leftover.w" in err

    def test_wrong_family_weights_is_4(self, capsys, tone_wav, tmp_path):
        wpath = tmp_path / "w.lfwb"
        run(capsys, "gen-weights", "--config", "toy-contextnet",
            "--seed", "0", "--out", str(wpath))
        code, _, _ = run(capsys, "transcribe", "--config", "toy-quartznet2",
                         "--weights", str(wpath), "--audio", tone_wav)
        assert code == 4

    def test_internal_error_is_5(self, capsys, tmp_path, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.bench, "sweep_rtf", boom)
        code, _, err = run(capsys, "bench", "--config", "toy-quartznet2",
                           "--durations", "1", "--out",
                           str(tmp_path / "r.csv"))
        assert code == 5
        assert "boom" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transcribe", "--config", "toy-quartznet2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_log_level_is_3(self, capsys, monkeypatch):
        monkeypatch.setenv("LFAB_LOG", "loud")
        code, _, err = run(capsys, "score", "--ref-file", "x", "--hyp-file", "x")
        assert code == 3
        assert "LFAB_LOG" in err

    def test_audio_shorter_than_one_window_is_2(self, capsys, tmp_path):
        path = tmp_path / "tiny.wav"
        samples = np.zeros(300, dtype=np.float32)
        frontend.write_wav(path, frontend.AudioBuffer(samples))
        code, _, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                           "--audio", str(path))
        assert code == 2
        assert "too short" in err


# JSON values a fuzzed manifest line or field may take
FUZZ_JSON_VALUES = [None, True, 0, -1, 3, 1e308, 10**400, "", "x", [], [1, 2],
                    {}, {"x": 1}, float("nan"), float("inf")]


class TestInputFuzz:
    """Seeded mutations of each user input: every exit is 0 or 2, never 5."""

    def test_manifest_mutations_exit_0_or_2(self, capsys, tmp_path):
        rows = [{"audio_filepath": f"talk{i}.wav", "duration": 60.0 * (i + 1),
                 "text": "a b"} for i in range(3)]
        rng = np.random.default_rng(5)
        path = tmp_path / "m.json"
        codes = {}
        for case in range(300):
            kind = case % 4
            if kind >= 2:  # a line, or one field of it, set to a JSON value
                mutated = [dict(r) for r in rows]
                value = FUZZ_JSON_VALUES[rng.integers(len(FUZZ_JSON_VALUES))]
                i = rng.integers(len(rows))
                if kind == 2:
                    mutated[i] = value
                else:
                    mutated[i][list(rows[0])[rng.integers(3)]] = value
                data = "".join(json.dumps(r) + "\n" for r in mutated).encode()
            else:
                data = bytearray("".join(json.dumps(r) + "\n" for r in rows).encode())
                if kind == 0:  # one byte anywhere
                    data[rng.integers(len(data))] = rng.integers(256)
                else:  # truncation
                    del data[rng.integers(len(data)):]
            path.write_bytes(bytes(data))
            code, _, err = run(capsys, "manifest-stats", "--manifest", str(path))
            assert code in (0, 2), (case, bytes(data), err)
            codes[code] = codes.get(code, 0) + 1
        assert set(codes) == {0, 2}, codes

    def test_wav_header_mutations_exit_0_or_2(self, capsys, tmp_path):
        path = tmp_path / "a.wav"
        frontend.write_wav(path, frontend.synth_audio(0.5, seed=3))
        data = path.read_bytes()
        rng = np.random.default_rng(7)
        codes = {}
        for case in range(300):
            mutated = bytearray(data)
            kind = case % 3
            if kind == 0:  # one header byte set to a random value
                mutated[rng.integers(44)] = rng.integers(256)
            elif kind == 1:  # a random u32 over four header bytes
                at = rng.integers(41)
                mutated[at:at + 4] = struct.pack("<I", rng.integers(2**32))
            else:  # truncation
                del mutated[rng.integers(len(data)):]
            path.write_bytes(bytes(mutated))
            code, _, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                               "--audio", str(path))
            assert code in (0, 2), (case, err)
            codes[code] = codes.get(code, 0) + 1
        assert set(codes) == {0, 2}, codes


class TestWeightsEntryNamesStable:
    def test_file_entry_order_matches_build_order(self, capsys, tmp_path):
        wpath = tmp_path / "w.lfwb"
        run(capsys, "gen-weights", "--config", "toy-quartznet2",
            "--seed", "0", "--out", str(wpath))
        names = list(read_weights_file(wpath))
        rc = cli.resolve_run_config("toy-quartznet2")
        assert names == list(cli.build_model(rc, seed=0).weights)
        assert names[0] == "prologue.0.dw"
        assert names[-1] == "head.rnnt.joint.w_out"
