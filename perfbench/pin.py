"""Re-pin digests.json: the transcripts and encoder outputs of every
workload variant, as the lfab sources in this checkout produce them.

Usage, from the repository root: python3 perfbench/pin.py

Run it only when a change is meant to alter lfab's outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import VARIANTS, WEIGHTS_SEED, WORKLOADS


def pin_variant(wl, v: int, workdir: str) -> tuple[dict, dict]:
    os.makedirs(workdir)
    try:
        made = run.prepare_inputs(wl, v, workdir, run.RUN_DEADLINE_S)
        spec = dict(made["inputs"], workload=wl.name, mode="pin",
                    result=os.path.join(workdir, "result.json"))
        res = run.run_worker(spec, os.path.join(workdir, "spec.json"),
                             run.RUN_DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    transcripts = {}
    for preset, call in res["rounds"][0]["calls"].items():
        if call["code"] != 0:
            raise RuntimeError(f"{wl.name} variant {v} {preset}: {call['stderr']}")
        transcripts[preset] = [run.line_digest(line)
                               for line in call["stdout"].splitlines()]
    encoder = {p: r["encoder_digest"] for p, r in res["memory"].items()}
    return transcripts, encoder


def main() -> int:
    pinned = {"variants": VARIANTS, "weights_seed": WEIGHTS_SEED,
              "transcripts": {}, "encoder": {}}
    for wl in WORKLOADS.values():
        for v in range(VARIANTS):
            workdir = os.path.join(run.WORK, f"pin-{wl.name}-{v}-{os.getpid()}")
            t, e = pin_variant(wl, v, workdir)
            pinned["transcripts"].setdefault(wl.name, {})[str(v)] = t
            pinned["encoder"].setdefault(wl.name, {})[str(v)] = e
            print(f"pinned {wl.name} variant {v}", flush=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
