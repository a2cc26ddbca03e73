"""End-to-end command tests driven through cli.main."""

import decimal
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from lfab import cli, encoders, frontend, metrics
from lfab.tensor import Tensor
from lfab.weights import read_weights_file, write_weights_file
from test_weights import serialize_weights

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

    def test_config_file_not_utf8_is_a_config_error(self, tmp_path):
        # was exit 2: the UnicodeDecodeError passed as bad input
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"family": "conv\xff_only"}')
        with pytest.raises(cli.ConfigError, match="config file"):
            cli.resolve_run_config(str(path))


class TestTypedConfigValidation:
    """Wrongly typed or out-of-range config values exit 3 and name the key."""

    @pytest.mark.parametrize("base, key, value", [
        ("toy-fastconformer", "heads", "4"),  # was exit 5, TypeError
        ("toy-contextnet", "num_blocks", True),  # was exit 3, "True not divisible"
        ("toy-quartznet2", "model_dim", 64.0),
        ("toy-fastconformer", "left_context", -1),
        ("toy-quartznet2", "seed", -1),
        ("toy-quartznet2", "budget_bytes", True),
        ("toy-citrinet", "kernel_sizes", [5, "3", 7, 5, 9, 5, 7, 3]),  # last: its test id is value6
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

    @pytest.mark.parametrize("base, key, value", [
        ("toy-contextnet", "alpha", 1.0),
        ("toy-quartznet2", "kernel_size", 7),
        ("toy-contextnet", "se_reduction", 8),
        ("toy-fastconformer", "ff_expansion", 4),
        ("toy-fastconformer-gt", "use_global_token", True),
    ])
    def test_removed_key_exits_3(self, capsys, tmp_path, base, key, value):
        # fixed by the family, so unknown even at the value the family uses
        raw = dict(cli.PRESETS[base], **{key: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "gen-weights", "--config", str(path),
                           "--out", str(tmp_path / "w.lfwb"))
        assert code == 3, err
        assert f"unknown config keys ['{key}']" in err
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

    @pytest.mark.parametrize("command, extra", [
        ("gen-weights", ["--out"]),
        ("transcribe", ["--audio"]),
    ])
    def test_weights_over_physical_memory_exit_3(self, capsys, tmp_path, tone_wav,
                                                 command, extra):
        # 8.0e10 parameters: numpy used to fail asking for 298 GiB (exit 5)
        raw = {"family": "conv_only", "model_dim": 200000, "channels": 200000, "num_blocks": 1}
        count = encoders.expected_parameter_count(cli.encoder_config_from_dict(raw))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        target = tone_wav if command == "transcribe" else str(tmp_path / "w.lfwb")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, command, "--config", str(path), *extra, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3, err
        assert f"{count} parameters" in err and out == ""
        assert peak < 2**20
        assert not (tmp_path / "w.lfwb").exists()

    def test_zero_context_is_valid(self):
        raw = dict(cli.PRESETS["toy-fastconformer"], left_context=0, right_context=0)
        assert cli.encoder_config_from_dict(raw).attention.left_context == 0

    @pytest.mark.parametrize("key", ["left_context", "right_context"])
    def test_full_attention_rejects_a_context_window(self, capsys, tmp_path, key):
        # was accepted and ignored: max-length printed toy-conformer's answer
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cli.PRESETS["toy-conformer"], **{key: 3})))
        code, out, err = run(capsys, "max-length", "--config", str(path))
        assert code == 3, err
        assert key in err and out == ""

    def test_every_config_key_is_set_by_a_preset(self):
        # a key no preset sets is an option with one value in use
        accepted = {"family", *cli._ATTENTION_KEYS, *cli._ENCODER_KEYS}
        assert accepted - {k for raw in cli.PRESETS.values() for k in raw} == set()


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

    def test_bad_manifest_file_named_after_earlier_lines(self, capsys, tmp_path):
        # the run stops at the first bad file, with exit 2 and a message that
        # starts with its path; the transcripts printed before it stand
        for i in range(3):
            frontend.write_wav(tmp_path / f"u{i}.wav", frontend.synth_audio(0.5, seed=i))
        cut = tmp_path / "u1.wav"
        cut.write_bytes(cut.read_bytes()[:44 + 4001])
        (tmp_path / "m.json").write_text("".join(
            json.dumps({"audio_filepath": f"u{i}.wav", "duration": 0.5, "text": ""}) + "\n"
            for i in range(3)))
        _, first, _ = run(capsys, "transcribe", "--config", "toy-quartznet2",
                          "--audio", str(tmp_path / "u0.wav"))
        code, out, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                             "--manifest", str(tmp_path / "m.json"))
        assert code == 2
        assert out == first
        assert err.startswith(f"error: {cut}: PCM data ends mid-sample: 4001 bytes")

    def test_missing_manifest_file_named_once(self, capsys, tmp_path):
        frontend.write_wav(tmp_path / "u0.wav", frontend.synth_audio(0.5, seed=0))
        gone = tmp_path / "gone.wav"
        (tmp_path / "m.json").write_text("".join(
            json.dumps({"audio_filepath": name, "duration": 0.5, "text": ""}) + "\n"
            for name in ("u0.wav", "gone.wav")))
        code, out, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                             "--manifest", str(tmp_path / "m.json"))
        assert code == 2
        assert out.count("\n") == 1
        assert err.count(str(gone)) == 1, err
        assert err.startswith(f"error: {gone}: not a readable RIFF wav file: No such file")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "a Python-to-Python call moves its argument references into the "
        "callee's frame from CPython 3.11 on; before, the caller keeps one"))
    def test_features_freed_before_the_first_conv_block_returns(
            self, capsys, tmp_path, tone_wav, monkeypatch):
        # encode gets the only reference to the features and drops it once
        # it has transposed them
        feats, alive = [], []
        log_mel, conv_block = frontend.log_mel, encoders._conv_block_forward

        def tracked_log_mel(audio):
            fm = log_mel(audio)
            feats.append(weakref.ref(fm.frames))
            return fm

        def checked_block(x, blk):
            out = conv_block(x, blk)
            if len(alive) < len(feats):  # the pass's first block
                alive.append(feats[-1]() is not None)
            return out

        monkeypatch.setattr(frontend, "log_mel", tracked_log_mel)
        monkeypatch.setattr(encoders, "_conv_block_forward", checked_block)
        (tmp_path / "m.json").write_text(json.dumps(
            {"audio_filepath": tone_wav, "duration": 2.0, "text": ""}) + "\n")
        for source in (["--audio", tone_wav], ["--manifest", str(tmp_path / "m.json")]):
            for decoder in ("ctc", "rnnt"):
                code, _, _ = run(capsys, "transcribe", "--config", "toy-quartznet2",
                                 *source, "--decoder", decoder)
                assert code == 0
        assert alive == [False] * 4

    def test_debug_log_reports_peak_rss_on_stderr_only(self, tmp_path, tone_wav):
        # a run of its own process, so logging is set up as a user's is
        (tmp_path / "m.json").write_text("".join(
            json.dumps({"audio_filepath": tone_wav, "duration": 2.0, "text": ""}) + "\n"
            for _ in range(2)))
        argv = [sys.executable, "-m", "lfab.cli", "transcribe", "--config", "toy-quartznet2",
                "--manifest", str(tmp_path / "m.json")]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        env.pop("LFAB_LOG", None)
        plain = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        debug = subprocess.run(argv, env=dict(env, LFAB_LOG="debug"), capture_output=True,
                               text=True, check=True)
        assert debug.stdout == plain.stdout and plain.stdout.count("\n") == 2
        lines = [ln for ln in debug.stderr.splitlines() if "peak RSS" in ln]
        assert len(lines) == 2, debug.stderr
        for line in lines:
            assert line.startswith(f"DEBUG lfab: {tone_wav}: ")
            assert float(line.rsplit("peak RSS ", 1)[1].removesuffix(" MiB")) > 0
        assert "peak RSS" not in plain.stderr

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

    @pytest.mark.parametrize("durations", ["inf", "1,-inf", "nan"])
    def test_non_finite_duration_exits_2(self, capsys, tmp_path, durations):
        code, _, err = run(
            capsys, "bench", "--config", "toy-quartznet2",
            "--durations", durations, "--repeats", "1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert f"bad duration list {durations!r}" in err

    def test_duration_over_the_bound_exits_2(self, capsys, tmp_path):
        # exit 5 before the bound: numpy could not allocate 114 PiB of samples
        code, _, err = run(
            capsys, "bench", "--config", "toy-quartznet2",
            "--durations", "1,1e12", "--repeats", "1",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "duration 1e+12 s is over" in err
        assert not (tmp_path / "r.csv").exists()


class TestMaxLength:
    def parse(self, out):
        seconds, minutes = out.split()
        return int(seconds), float(minutes)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_budget_too_large_for_a_float(self, capsys, tmp_path, source):
        budget = 10**400
        if source == "flag":
            argv = ["--config", "toy-quartznet2", "--budget-bytes", str(budget)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(cli.PRESETS["toy-quartznet2"], budget_bytes=budget)))
            argv = ["--config", str(path)]
        code, out, err = run(capsys, "max-length", *argv)
        assert code == 0, err
        seconds, minutes = out.split()
        with decimal.localcontext() as ctx:
            ctx.prec = 500
            want = (decimal.Decimal(seconds) / 60).quantize(decimal.Decimal("0.01"))
        assert len(seconds) > 390
        assert minutes == str(want)

    @pytest.mark.parametrize("num_blocks", [1025, 10**400])
    def test_num_blocks_over_the_cap_exits_3(self, capsys, tmp_path, num_blocks):
        # without the cap, 10**400 blocks never finished building the schedule
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cli.PRESETS["toy-quartznet2"], num_blocks=num_blocks)))
        code, out, err = run(capsys, "max-length", "--config", str(path))
        assert code == 3, err
        assert "num_blocks must be an integer in [1, 1024]" in err and out == ""

    def test_budget_under_one_second_exits_3(self, capsys):
        code, out, err = run(capsys, "max-length", "--config", "toy-quartznet2",
                             "--budget-bytes", "1000")
        assert code == 3, err
        assert "budget too small" in err and out == ""

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

    @pytest.mark.parametrize("duration", ["Infinity", "-Infinity"])
    def test_non_finite_duration_is_input_error(self, capsys, tmp_path, duration):
        # "Infinity" printed min_min=inf max_min=inf mean_min=inf and exited 0
        path = tmp_path / "m.json"
        path.write_text('{"audio_filepath": "a.wav", "duration": ' + duration
                        + ', "text": "t"}\n')
        code, out, err = run(capsys, "manifest-stats", "--manifest", str(path))
        assert code == 2 and out == ""
        assert f"{path}:1: duration must be positive and finite" in err


# WAV files too short to hold a RIFF header, on which wave raises a bare
# EOFError
HEADERLESS_WAVS = {"empty.wav": b"", "one.wav": b"x", "riff.wav": b"RIFF"}


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

    # {F} is a regular file, so a path under it fails with NotADirectoryError
    @pytest.mark.parametrize("argv, bad", [
        (["gen-weights", "--config", "toy-conformer", "--out", "{F}/w.lfwb"], "{F}/w.lfwb"),
        (["gen-weights", "--config", "toy-quartznet2", "--out", "{D}/" + "w" * 300],
         "{D}/" + "w" * 300),  # ENAMETOOLONG
        (["bench", "--config", "toy-quartznet2", "--durations", "1", "--out", "{F}/b.csv"],
         "{F}/b.csv"),
        (["bench", "--config", "toy-quartznet2", "--durations", "1", "--out", "{D}/no/b.csv"],
         "{D}/no/b.csv"),  # used to name the temporary file
        (["score", "--ref-file", "{F}/x", "--hyp-file", "{F}"], "{F}/x"),
        (["manifest-stats", "--manifest", "{F}/m.json"], "{F}/m.json"),
        (["transcribe", "--config", "toy-quartznet2", "--manifest", "{F}/m.json"], "{F}/m.json"),
        (["transcribe", "--config", "toy-quartznet2", "--weights", "{F}/w", "--audio", "{A}"],
         "{F}/w"),
    ], ids=["gen-weights", "gen-weights-long-name", "bench", "bench-missing-dir", "score",
            "manifest-stats", "transcribe-manifest", "transcribe-weights"])
    def test_os_error_on_a_user_path_is_2(self, capsys, tmp_path, tone_wav, argv, bad):
        # the NotADirectoryError and ENAMETOOLONG cases exited 5 with a traceback
        f = tmp_path / "file"
        f.write_text("x")
        argv = [a.format(F=f, D=tmp_path, A=tone_wav) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert bad.format(F=f, D=tmp_path) in err and ".tmp" not in err
        assert "Traceback" not in err and out == ""
        assert list(tmp_path.iterdir()) == [f]

    @pytest.mark.parametrize("command", ["bench", "gen-weights"])
    def test_missing_out_directory_exits_2_before_the_work(self, capsys, tmp_path,
                                                          monkeypatch, command):
        calls = []

        def work(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the work ran")

        monkeypatch.setattr(cli, "build_model", work)
        monkeypatch.setattr(cli.bench, "sweep_rtf", work)
        out = tmp_path / "missing" / "result"
        argv = [command, "--config", "toy-quartznet2", "--out", str(out)]
        if command == "bench":
            argv += ["--durations", "1"]
        code, stdout, err = run(capsys, *argv)
        assert code == 2, err
        assert f"No such file or directory: '{out}'" in err and stdout == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    # {D} is a directory that holds bad.json and the 0-, 1- and 4-byte WAVs
    # of HEADERLESS_WAVS
    @pytest.mark.parametrize("argv, message", [
        (["bench", "--durations", "abc"], "bad duration list 'abc'"),
        (["bench", "--durations", "2,1"], "ascending"),
        (["bench", "--durations", "1", "--repeats", "0"], "repeats must be >= 1"),
        (["transcribe", "--manifest", "{D}/m.json"], "No such file"),
        (["transcribe", "--manifest", "{D}/bad.json"], "bad.json:1: invalid JSON"),
        (["transcribe", "--audio", "{D}/gone.wav"],
         "gone.wav: not a readable RIFF wav file: No such file"),
        (["transcribe", "--audio", "{D}/bad.json"], "bad.json: not a readable RIFF wav file"),
    ] + [(["transcribe", "--audio", "{D}/" + name],
          f"{name}: not a readable RIFF wav file: file ends before its RIFF and fmt "
          "headers are complete") for name in HEADERLESS_WAVS],
        ids=["bench-durations", "bench-unsorted", "bench-repeats", "transcribe-missing",
             "transcribe-unparsable", "transcribe-audio-missing", "transcribe-audio-not-wav",
             *HEADERLESS_WAVS])
    def test_bad_argument_exits_2_before_the_model_is_built(self, capsys, tmp_path,
                                                            monkeypatch, argv, message):
        # each of these used to exit 2 only after the model's weights were drawn
        def work(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "build_model", work)
        (tmp_path / "bad.json").write_text("{not json\n")
        for name, data in HEADERLESS_WAVS.items():
            (tmp_path / name).write_bytes(data)
        argv = [a.format(D=tmp_path) for a in argv] + ["--config", "toy-quartznet2"]
        if argv[0] == "bench":
            argv += ["--out", str(tmp_path / "b.csv")]
        code, stdout, err = run(capsys, *argv)
        assert code == 2, err
        assert message in err and stdout == ""

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

    def test_wav_cut_short_of_its_data_chunk_is_2(self, capsys, tmp_path):
        path = tmp_path / "cut.wav"
        frontend.write_wav(path, frontend.synth_audio(0.5, seed=3))
        path.write_bytes(path.read_bytes()[:44 + 4000])
        code, out, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                             "--audio", str(path))
        assert code == 2
        assert out == ""
        assert "declares 8000 samples" in err and "holds 4000 bytes" in err

    def test_audio_shorter_than_one_window_is_2(self, capsys, tmp_path):
        path = tmp_path / "tiny.wav"
        samples = np.zeros(300, dtype=np.float32)
        frontend.write_wav(path, frontend.AudioBuffer(samples))
        code, _, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                           "--audio", str(path))
        assert code == 2
        assert "too short" in err


def pcm16_wav_bytes(n_samples, seed=0):
    """A 44-byte-header PCM16 WAV of n_samples random samples."""
    ints = np.random.default_rng(seed).integers(-32768, 32768, size=n_samples)
    data = ints.astype("<i2").tobytes()
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVEfmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
            + b"data" + struct.pack("<I", len(data)) + data)


def data_bytes_message(n_samples, held):
    """read_wav's message for a data chunk of n_samples with held bytes."""
    if held % 2:
        return (f"PCM data ends mid-sample: {held} bytes is not a whole "
                "number of 16-bit samples")
    return (f"truncated WAV: the data chunk declares {n_samples} samples, "
            f"the file holds {held} bytes of them")


class TestWavDataErrors:
    """A WAV whose data is cut short, through --audio and --manifest: exit 2
    with the message naming the file, and --audio fails before the model is
    built. The samples are read after the model is built, so a file cut
    after read_wav has checked it must fail the same way."""

    N = 1000  # samples: the 4 frames toy-quartznet2 needs at least
    READ_WAV = staticmethod(frontend.read_wav)

    @pytest.fixture(scope="class")
    def model(self):
        return cli.build_model(cli.resolve_run_config("toy-quartznet2"), seed=0)

    def transcribe(self, capsys, monkeypatch, model, path, source, cut_after_read=None):
        """Exit code and stderr of transcribe over path. cut_after_read
        truncates the file to that many bytes once read_wav has returned."""
        def cut():
            if cut_after_read is not None:
                with open(path, "r+b") as f:
                    f.truncate(cut_after_read)

        def build(*args, **kwargs):
            if source == "--audio":
                if cut_after_read is None:
                    raise AssertionError("the model was built")
                cut()  # --audio reads the file before the model is built
            return model

        def read_then_cut(p):
            audio = self.READ_WAV(p)
            cut()
            return audio

        monkeypatch.setattr(cli, "build_model", build)
        if source == "--manifest":
            monkeypatch.setattr(frontend, "read_wav", read_then_cut)
            manifest = path.parent / "m.json"
            manifest.write_text(json.dumps(
                {"audio_filepath": path.name, "duration": 0.0625, "text": ""}) + "\n")
            target = manifest
        else:
            target = path
        code, out, err = run(capsys, "transcribe", "--config", "toy-quartznet2",
                             source, str(target))
        return code, out, err

    @pytest.mark.parametrize("source", ["--audio", "--manifest"])
    def test_truncated_at_every_offset(self, capsys, monkeypatch, tmp_path, model, source):
        # every odd length among them ends mid-sample
        data = pcm16_wav_bytes(self.N)
        path = tmp_path / "cut.wav"
        for held in range(2 * self.N):
            path.write_bytes(data[:44 + held])
            code, out, err = self.transcribe(capsys, monkeypatch, model, path, source)
            assert (code, out) == (2, ""), (held, err)
            assert err == f"error: {path}: {data_bytes_message(self.N, held)}\n", held

    @pytest.mark.parametrize("source", ["--audio", "--manifest"])
    @pytest.mark.parametrize("riff_data", [0, 101, 500])
    def test_data_chunk_past_riff_end(self, capsys, monkeypatch, tmp_path, model,
                                      source, riff_data):
        # the RIFF chunk ends riff_data bytes into the data chunk; the file
        # holds every byte the data chunk declares
        data = bytearray(pcm16_wav_bytes(self.N))
        data[4:8] = struct.pack("<I", 36 + riff_data)
        path = tmp_path / "riff.wav"
        path.write_bytes(bytes(data))
        code, _, err = self.transcribe(capsys, monkeypatch, model, path, source)
        assert code == 2
        assert err == f"error: {path}: {data_bytes_message(self.N, riff_data)}\n"

    @pytest.mark.parametrize("source", ["--audio", "--manifest"])
    @pytest.mark.parametrize("held", [0, 1, 600, 1999])
    def test_cut_after_read_wav_returned(self, capsys, monkeypatch, tmp_path, model,
                                         source, held):
        path = tmp_path / "late.wav"
        path.write_bytes(pcm16_wav_bytes(self.N))
        code, out, err = self.transcribe(capsys, monkeypatch, model, path, source,
                                         cut_after_read=44 + held)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {data_bytes_message(self.N, held)}\n"

    @pytest.mark.parametrize("source", ["--audio", "--manifest"])
    def test_whole_file_is_transcribed(self, capsys, monkeypatch, tmp_path, model, source):
        # the case the others cut short: the same call succeeds
        path = tmp_path / "whole.wav"
        path.write_bytes(pcm16_wav_bytes(self.N))
        code, out, err = self.transcribe(capsys, monkeypatch, model, path, source,
                                         cut_after_read=44 + 2 * self.N)
        assert code == 0, err
        assert out.count("\n") == 1


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

    def test_config_mutations_exit_0_or_3(self, capsys, tmp_path):
        # a byte flip, a truncation, or one key set to a JSON value or a
        # huge integer, over one preset of each family
        bases = [cli.PRESETS[p] for p in ("toy-quartznet2", "toy-contextnet",
                                          "toy-citrinet", "toy-fastconformer-gt")]
        values = FUZZ_JSON_VALUES + [2**63, 10**18, -(10**400)]
        rng = np.random.default_rng(11)
        path = tmp_path / "cfg.json"
        codes = {}
        for case in range(300):
            base = bases[case % len(bases)]
            kind = case % 3
            if kind == 2:
                value = values[rng.integers(len(values))]
                data = json.dumps(dict(base, **{list(base)[rng.integers(len(base))]: value}))
                data = data.encode()
            else:
                data = bytearray(json.dumps(base).encode())
                if kind == 0:  # one byte anywhere
                    data[rng.integers(len(data))] = rng.integers(256)
                else:  # truncation
                    del data[rng.integers(len(data)):]
            path.write_bytes(bytes(data))
            code, _, err = run(capsys, "max-length", "--config", str(path))
            assert code in (0, 3), (case, bytes(data), err)
            codes[code] = codes.get(code, 0) + 1
        assert set(codes) == {0, 3}, codes


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
