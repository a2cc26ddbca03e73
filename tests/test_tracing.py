"""The hook contract between lfab and the benchmark's span tracer.

perfbench/tracing.py wraps lfab functions by name from outside the program.
A rename, or a function reached by a path the tracer cannot rebind, would
silently drop its spans and counters, so the contract is checked here.
"""

import importlib
import importlib.util
import pathlib

import pytest

from lfab import cli, encoders, frontend

TRACING_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every function-valued binding the tracer may rebind: module globals and
    module-level dicts of every lfab module."""
    out = {}
    for name in ("attention", "bench", "cli", "decoders", "encoders", "frontend",
                 "metrics", "tensor", "weights"):
        mod = importlib.import_module(f"lfab.{name}")
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
            elif isinstance(value, dict):
                for k, v in value.items():
                    if callable(v):
                        out[(name, key, k)] = v
    return out


def test_every_hooked_name_resolves(tracing):
    for mod_name, names in tracing.GROUPS.items():
        mod = importlib.import_module(f"lfab.{mod_name}")
        for fn_name in names:
            assert callable(getattr(mod, fn_name, None)), f"lfab.{mod_name}.{fn_name}"


def test_spans_recorded_and_originals_restored(tracing):
    models = [cli.build_model(cli.resolve_run_config(p), seed=1)
              for p in ("toy-contextnet", "toy-fastconformer-gt")]
    feats = frontend.log_mel(frontend.synth_audio(2.0, seed=3)).frames
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        frames = sum(encoders.encode(m, feats).shape[0] for m in models)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [k for k in before if after[k] is not before[k]]
    assert moved == []
    names = {span[0] for span in tracer.spans}
    for want in ("tensor.conv1d", "tensor.depthwise_separable_conv1d", "tensor.matmul",
                 "tensor.relu", "tensor.silu", "encoders.encode"):
        assert want in names, want
    assert tracer.counts["encoders.frames_out"] == frames
    assert tracer.counts["tensor.conv1d.gflop"] > 0
    assert tracer.counts["tensor.linear_rows.gflop"] > 0
    # the pointwise convs count under tensor.linear_rows, as matmul; no
    # product drops out of the two FLOP counters together
    total = tracer.counts["tensor.conv1d.gflop"] + tracer.counts["tensor.linear_rows.gflop"]
    assert total == pytest.approx(0.020198912, rel=1e-12)


@pytest.mark.parametrize("decoder", ["ctc", "rnnt"])
def test_transcribe_spans_through_cli_main(tracing, tmp_path, capsys, decoder):
    # the user path: weights file, front end, build with heads, encode, decode
    wpath, wav = tmp_path / "w.lfwb", tmp_path / "a.wav"
    assert cli.main(["gen-weights", "--config", "toy-quartznet2", "--seed", "1",
                     "--out", str(wpath)]) == 0
    frontend.write_wav(wav, frontend.synth_audio(1.0, seed=3))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["transcribe", "--config", "toy-quartznet2", "--weights", str(wpath),
                         "--audio", str(wav), "--decoder", decoder])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    names = {span[0] for span in tracer.spans}
    want = {"cli.main", "weights.read_weights_file", "encoders.build",
            "encoders.attach_heads", "encoders.encode", "frontend.read_wav",
            "frontend.log_mel"}
    want |= ({"encoders.ctc_logits", "decoders.ctc_greedy"} if decoder == "ctc"
             else {"decoders.rnnt_greedy"})
    assert want <= names, want - names
