"""lfab benchmark: RTF, set-up time and peak RSS per workload, or a traced
per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload ctc-longform --seed 3 --seconds 32 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, variant

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
RUN_DEADLINE_S = 175  # the whole run, inputs and both workers included
SELF_SUM_TOLERANCE = 1e-6

# one BLAS thread per core the process may run on; set before numpy loads
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {k: str(NPROC) for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f)


def run_worker(spec: dict, spec_path: str, timeout: float) -> dict:
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    env = dict(os.environ, **THREAD_ENV)
    env.pop("LFAB_LOG", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=env, timeout=timeout, stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as f:
        return json.load(f)


def prepare_inputs(wl, seed: int, workdir: str, timeout: float) -> dict:
    """Generate the run's inputs in a worker; returns paths and run context."""
    spec = {"workload": wl.name, "mode": "inputs", "seed": seed,
            "workdir": workdir, "result": os.path.join(workdir, "inputs.json")}
    return run_worker(spec, os.path.join(workdir, "inputs-spec.json"), timeout)


def check_round(wl, rnd, expected) -> tuple[int, int]:
    """(attempted, failed) passes of one round against the pinned digests."""
    n = len(wl.durations)
    attempted = failed = 0
    for preset, call in rnd["calls"].items():
        attempted += n
        want = expected.get(preset)
        got = [line_digest(line) for line in call["stdout"].splitlines()]
        if call["code"] != 0 or want is None or len(got) != n:
            failed += n
            if call["stderr"]:
                print(f"{preset}: {call['stderr'].strip()}", file=sys.stderr)
            continue
        failed += sum(g != w for g, w in zip(got, want))
    return attempted, failed


def transcripts(rnd) -> dict:
    return {p: c["stdout"] for p, c in rnd["calls"].items()}


def rtf(wl, rounds) -> float:
    """Per preset, the median over its calls of the transcribe wall less the
    cli.build_model wall; summed and divided by one round's audio."""
    per_preset = [
        statistics.median(r["calls"][p]["wall_s"] - r["calls"][p]["build_s"]
                          for r in rounds if p in r["calls"])
        for p in wl.presets
    ]
    return sum(per_preset) / wl.audio_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lfab", "__init__.py")):
        print(f"error: lfab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # on SIGTERM, unwind: subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    load_at_start = os.getloadavg()

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        made = prepare_inputs(wl, args.seed, workdir, deadline - time.monotonic())
        spec = dict(
            made["inputs"],
            workload=wl.name,
            mode="trace" if args.trace else "time",
            seconds=args.seconds,
            result=os.path.join(workdir, "result.json"),
            spans=os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json"),
        )
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
        res = run_worker(spec, os.path.join(workdir, "spec.json"),
                         deadline - time.monotonic())
        if not args.trace:
            setup = dict(spec, mode="setup",
                         result=os.path.join(workdir, "setup-result.json"))
            res.update(run_worker(setup, os.path.join(workdir, "setup.json"),
                                  deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pinned = load_digests()
    expected = (pinned["transcripts"].get(wl.name, {})
                .get(str(variant(args.seed)), {}))
    attempted = failed = 0
    all_rounds = res["rounds"] + res.get("traced_rounds", [])
    for rnd in all_rounds:
        a, f = check_round(wl, rnd, expected)
        attempted += a
        failed += f
    correct = failed == 0

    info = {"rounds": len(res["rounds"]), "passes": attempted,
            "error_rate": failed / attempted,
            "call_walls_s": [[round(c["wall_s"], 3) for c in r["calls"].values()]
                             for r in all_rounds]}
    if args.trace:
        layers = res["layers"]
        same = all(transcripts(t) == transcripts(u)
                   for t, u in zip(res["traced_rounds"], res["rounds"]))
        sums_ok = (abs(layers["trace.self_sum_s"] - layers["trace.pass_wall_s"])
                   <= SELF_SUM_TOLERANCE * layers["trace.pass_wall_s"])
        invariant_ok = res["rnnt_invariant_violations"] == 0
        correct = correct and same and sums_ok and invariant_ok
        want_enc = (pinned["encoder"].get(wl.name, {})
                    .get(str(variant(args.seed)), {}))
        info.update({
            "traced_rounds": len(res["traced_rounds"]),
            "traced_equals_untraced": same,
            "self_times_sum_to_pass_wall": sums_ok,
            "rnnt_joint_evals_invariant": invariant_ok,
            "memory": res["memory"],
            "encoder_digest_matches_pin": {
                p: r["encoder_digest"] == want_enc.get(p)
                for p, r in res["memory"].items()},
            "shares": {k[:-len(".self_s")]: v / layers["trace.pass_wall_s"]
                       for k, v in layers.items() if k.endswith(".self_s")},
        })
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        metrics = {
            "rtf": rtf(wl, res["rounds"]),
            "setup_s": statistics.median(res["setup_samples"]),
            "peak_rss_mib": res["ru_maxrss_mib"],
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    context = dict(made["context"], loadavg_at_start=load_at_start,
                   workload=wl.name, seed=args.seed, variant=variant(args.seed),
                   seconds=args.seconds, trace=args.trace)
    print(json.dumps({"run_context": context}))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def metric_units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
