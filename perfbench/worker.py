"""One step of a benchmark run, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json

The spec's mode picks the step: "inputs" writes the run's inputs, "setup"
times cli.build_model, "time" and "trace" run the passes, and "pin" runs one
round for pin.py. Passes go through the user path, `lfab transcribe
--manifest` (cli.main in-process, stdout captured), as one closed-loop
client. The step writes its findings to the result path named in the spec.

Each step gets a fresh process because ru_maxrss survives fork and exec and
never goes down: the "time" process must not inherit the memory that input
generation used, nor the heap fragmented by repeated builds, so that its
ru_maxrss is what its passes need.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WEIGHTS_CACHE = os.path.join(ROOT, ".perfbench-cache")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WARMUP_SECONDS,
    WEIGHTS_SEED,
    WORKLOADS,
    audio_seed,
    transcribe_argv,
    variant,
)

import numpy as np  # noqa: E402

from lfab import bench, cli, encoders, frontend, tensor  # noqa: E402

MIB = 2**20
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
MAX_LENGTH_BUDGET = 48 * 2**30
MAX_LENGTH_PRESETS = ("table2-quartznet2", "table2-contextnet",
                      "table2-conformer", "table2-fastconformer")


class BuildTimer:
    """Sums the wall time of cli.build_model, which transcribe calls first."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._original = cli.build_model
        cli.build_model = self._timed

    def _timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._original(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def run_call(argv, timer: BuildTimer) -> dict:
    """One `lfab transcribe` invocation; a crash is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    build0 = timer.seconds
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue() if code else "",
            "wall_s": wall, "build_s": timer.seconds - build0}


def run_round(calls, timer: BuildTimer, tracer=None, round_id=0) -> dict:
    results = {}
    for preset, argv in calls:
        if tracer is not None:
            tracer.pass_id = f"{round_id}:{preset}"
        results[preset] = run_call(argv, timer)
    return {"calls": results,
            "wall_s": sum(r["wall_s"] for r in results.values())}


def timed_rounds(seconds: float, one_round) -> list:
    """Repeat one_round while another is expected to end within `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def timed_calls(seconds: float, calls, timer: BuildTimer) -> list:
    """Rounds of calls for `seconds`: after one whole round, each further
    call runs only while it is expected to end in time, judged by that
    preset's previous call. The last round may hold only some presets."""
    rounds = []
    last = {}
    start = time.perf_counter()
    while True:
        rnd = {"calls": {}}
        rounds.append(rnd)
        for preset, argv in calls:
            if preset in last and (time.perf_counter() - start + last[preset]
                                   > seconds):
                return [r for r in rounds if r["calls"]]
            rnd["calls"][preset] = run_call(argv, timer)
            last[preset] = rnd["calls"][preset]["wall_s"]


def setup_samples(wl, weights) -> list[float]:
    """Summed cli.build_model wall over the workload's presets, repeated at
    least SETUP_MIN_REPEATS times and for at least SETUP_MIN_SECONDS."""
    samples = []
    while len(samples) < SETUP_MIN_REPEATS or sum(samples) < SETUP_MIN_SECONDS:
        total = 0.0
        for preset in wl.presets:
            rc = cli.resolve_run_config(preset)
            t0 = time.perf_counter()
            model = cli.build_model(rc, WEIGHTS_SEED, weights[preset])
            total += time.perf_counter() - t0
            del model
        samples.append(total)
    return samples


def memory_pass(wl, spec) -> dict:
    """Heap and Tensor peaks of encode over the longest utterance, per preset.

    Untimed, because tracemalloc slows every allocation. Both peaks add the
    feature matrix, which is live during encode, so they compare with
    bench.predict_peak_bytes on the same basis.
    """
    rows = {}
    for preset in wl.presets:
        rc = cli.resolve_run_config(preset)
        model = cli.build_model(rc, WEIGHTS_SEED, spec["weights"][preset])
        feats = frontend.log_mel(frontend.read_wav(spec["longest_wav"]))
        gc.collect()
        tracemalloc.start()
        try:
            with tensor.AllocationTracker() as tracker:
                enc = encoders.encode(model, feats.frames)
            heap = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        base = feats.frames.nbytes
        rows[preset] = {
            "frames": feats.num_frames,
            "predicted_mib": bench.predict_peak_bytes(rc.encoder, feats.num_frames) / MIB,
            "heap_peak_mib": (heap + base) / MIB,
            "tensor_peak_mib": (tracker.peak_bytes + base) / MIB,
            "encoder_digest": hashlib.sha256(enc.array.tobytes()).hexdigest()[:16],
        }
        del model, feats, enc
    return rows


def layer_metrics(tracer, traced_rounds, untraced_rounds, memory) -> dict:
    n = len(traced_rounds)
    groups, root_wall = tracing.self_times(tracer.spans)
    counts = tracer.counts
    m = {f"{g}.self_s": s / n for g, s in groups.items()}
    for key in ("frontend.frames", "weights.read_mib", "encoders.frames_out",
                "attention.dense_calls", "tensor.conv1d.gflop",
                "tensor.linear_rows.gflop", "decoders.joint_evals",
                "decoders.emissions"):
        m[key] = counts.get(key, 0.0) / n
    m["attention.chunked_calls"] = (counts.get("attention.calls", 0.0)
                                    - counts.get("attention.dense_calls", 0.0)) / n
    rnnt_s = sum(e - s for name, s, e, _, _ in tracer.spans
                 if name == "decoders.rnnt_greedy")
    evals = counts.get("decoders.joint_evals", 0.0)
    m["decoders.us_per_joint_eval"] = 1e6 * rnnt_s / evals if evals else 0.0
    worst = max(memory.values(), key=lambda r: r["heap_peak_mib"] / r["predicted_mib"])
    m["bench.predicted_peak_mib"] = max(r["predicted_mib"] for r in memory.values())
    m["bench.heap_peak_mib"] = max(r["heap_peak_mib"] for r in memory.values())
    m["bench.heap_over_predicted"] = worst["heap_peak_mib"] / worst["predicted_mib"]
    m["tensor.peak_live_mib"] = max(r["tensor_peak_mib"] for r in memory.values())
    for preset in MAX_LENGTH_PRESETS:
        m[f"bench.max_length_s.{preset}"] = float(bench.find_max_duration(
            cli.resolve_run_config(preset).encoder, MAX_LENGTH_BUDGET))
    m["trace.pass_wall_s"] = root_wall / n
    m["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced_rounds)
                           / statistics.median(r["wall_s"] for r in untraced_rounds))
    m["trace.self_sum_s"] = sum(groups.values()) / n
    return m


# (thread count, build config) entry points of the OpenBLAS builds numpy ships
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_info() -> dict:
    """BLAS name and version, and the core type and thread count the loaded
    OpenBLAS reports at run time (None where it cannot be asked)."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": deps.get("name"), "version": deps.get("version"),
            "threads": None, "runtime_config": None}
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_SYMBOLS:
            get_threads = getattr(lib, threads_name, None)
            get_config = getattr(lib, config_name, None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["runtime_config"] = get_config().decode()
                return info
    return info


def _write_manifest(path: str, names_durations) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for name, duration in names_durations:
            f.write(json.dumps({"audio_filepath": name, "duration": duration,
                                "text": ""}) + "\n")


def weights_cache_dir() -> str:
    """Directory for generated weights files, keyed by the lfab sources.

    The weights never depend on the run seed, so they are written once per
    source tree and reused: writing ~1.8 GB on every run costs 12 s and
    leaves the disk flushing during the runs that follow. Directories of
    other source trees are removed.
    """
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "lfab", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    key = digest.hexdigest()[:16]
    os.makedirs(WEIGHTS_CACHE, exist_ok=True)
    for name in os.listdir(WEIGHTS_CACHE):
        if name != key:
            shutil.rmtree(os.path.join(WEIGHTS_CACHE, name), ignore_errors=True)
    path = os.path.join(WEIGHTS_CACHE, key)
    os.makedirs(path, exist_ok=True)
    return path


def make_inputs(wl, seed: int, workdir: str) -> dict:
    """Write the WAVs, manifests and weights files one run of wl needs."""
    v = variant(seed)
    entries = []
    for i, duration in enumerate(wl.durations):
        name = f"utt{i}.wav"
        audio = frontend.synth_audio(duration, audio_seed(wl.name, v, i))
        frontend.write_wav(os.path.join(workdir, name), audio)
        entries.append((name, duration))
    manifest = os.path.join(workdir, "manifest.json")
    _write_manifest(manifest, entries)

    frontend.write_wav(
        os.path.join(workdir, "warmup.wav"),
        frontend.synth_audio(WARMUP_SECONDS, audio_seed(wl.name, v, 99)),
    )
    warmup_manifest = os.path.join(workdir, "warmup.json")
    _write_manifest(warmup_manifest, [("warmup.wav", WARMUP_SECONDS)])

    weights = dict.fromkeys(wl.presets)
    if wl.weights_files:
        cache = weights_cache_dir()
        for preset in wl.presets:
            path = os.path.join(cache, f"{preset}-seed{WEIGHTS_SEED}.lfwb")
            if not os.path.exists(path):
                code = cli.main(["gen-weights", "--config", preset,
                                 "--seed", str(WEIGHTS_SEED), "--out", path])
                if code != 0:
                    raise RuntimeError(f"gen-weights {preset} exited {code}")
            weights[preset] = path
    longest = max(entries, key=lambda e: e[1])[0]
    return {"manifest": manifest, "warmup_manifest": warmup_manifest,
            "longest_wav": os.path.join(workdir, longest), "weights": weights}


def run_context() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": len(os.sched_getaffinity(0))}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    wl = WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    out = {}
    if mode == "inputs":
        out["inputs"] = make_inputs(wl, spec["seed"], spec["workdir"])
        out["context"] = run_context()
        return write_result(spec, out)
    if mode == "setup":
        out["setup_samples"] = setup_samples(wl, spec["weights"])
        return write_result(spec, out)

    calls = [(p, transcribe_argv(wl, p, spec["manifest"], spec["weights"][p]))
             for p in wl.presets]
    timer = BuildTimer()
    warm = run_call(transcribe_argv(wl, wl.presets[0], spec["warmup_manifest"],
                                    spec["weights"][wl.presets[0]]), timer)
    if warm["code"] != 0:
        raise RuntimeError(f"warm-up transcribe failed: {warm['stderr']}")

    if mode == "time":
        out["rounds"] = timed_calls(spec["seconds"], calls, timer)
    elif mode == "trace":
        tracer = tracing.Tracer()
        untraced, traced = [], []

        def pair(i):
            # alternate which side goes first, so drift does not favour one
            sides = [lambda: untraced.append(run_round(calls, timer)),
                     lambda: traced.append(traced_round(tracer, calls, timer, i))]
            for side in sides if i % 2 == 0 else reversed(sides):
                side()

        timed_rounds(spec["seconds"], pair)
        out["rounds"] = untraced
        out["traced_rounds"] = traced
        out["memory"] = memory_pass(wl, spec)
        out["layers"] = layer_metrics(tracer, traced, untraced, out["memory"])
        out["rnnt_invariant_violations"] = tracer.counts.get(
            "decoders.invariant_violations", 0)
        tracer.write(spec["spans"])
    else:  # "pin": one untraced round plus encoder digests
        out["rounds"] = [run_round(calls, timer)]
        out["memory"] = memory_pass(wl, spec)
    out["ru_maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return write_result(spec, out)


def traced_round(tracer, calls, timer, round_id) -> dict:
    tracer.install()
    try:
        return run_round(calls, timer, tracer, round_id)
    finally:
        tracer.uninstall()


def write_result(spec, out) -> int:
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
