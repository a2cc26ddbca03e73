"""Span tracer that wraps lfab's public functions from outside the program.

Installing the tracer replaces each target function with a wrapper in every
lfab module that holds a reference to it: `attention`, `encoders` and `cli`
import some names directly, and `encoders._ACTS` keeps activation functions
in a dict. Uninstalling puts every original back.

A span is [name, start, end, parent index, pass id]. Spans stay in memory and
are written out once, at the end. A span's self time is its duration minus
the durations of its direct children; calls are single-threaded and nested,
so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# module -> {public function: metric group}. A function left out here counts
# toward the self time of the wrapped function that calls it: cli.main, the
# root of every call, thus holds argument parsing, the manifest read,
# bench.run_pipeline's glue and printing.
GROUPS = {
    "cli": {"main": "cli"},
    "frontend": {"read_wav": "frontend.read_wav", "log_mel": "frontend.log_mel"},
    "weights": {"read_weights_file": "weights.read_weights_file"},
    "encoders": {
        "build": "encoders.build",
        "attach_heads": "encoders.build",
        "encode": "encoders.encode",
        "ctc_logits": "encoders.encode",
    },
    "attention": {
        name: "attention"
        for name in ("mha_full", "lca_chunked", "lca_global_token",
                     "attend_with_mask")
    },
    "tensor": {
        "conv1d": "tensor.conv1d",
        "depthwise_separable_conv1d": "tensor.conv1d",
        "linear_rows": "tensor.linear_rows",
        "matmul": "tensor.linear_rows",  # the SE module's bottleneck GEMMs
        "batched_matmul": "tensor.batched_matmul",
        "softmax_rows": "tensor.softmax_rows",
        "layer_norm": "tensor.norm",
        "batch_norm_infer": "tensor.norm",
        **{name: "tensor.elementwise"
           for name in ("add", "mul", "sigmoid", "silu", "relu", "transpose",
                        "scale_channels", "mean_over_time")},
    },
    "decoders": {"ctc_greedy": "decoders.ctc_greedy",
                 "rnnt_greedy": "decoders.rnnt_greedy"},
}

SELF_GROUPS = sorted({g for names in GROUPS.values() for g in names.values()})


def _conv1d_flop(args, kwargs, out) -> float:
    w = args[1] if len(args) > 1 else kwargs["w"]
    c_out, c_in_g, k = w.shape
    return 2.0 * c_out * c_in_g * k * out.shape[1]


def _gemm_flop(args, kwargs, out) -> float:
    # linear_rows (T, Din) x (Dout, Din)^T and matmul (M, K) x (K, N) alike
    return 2.0 * out.size * args[0].shape[-1]


def _counters(counts):
    """Per-function counting hooks: (args, kwargs, result) -> None."""

    def add(key, value):
        counts[key] += value

    return {
        ("frontend", "log_mel"): lambda a, k, r: add("frontend.frames", r.num_frames),
        ("weights", "read_weights_file"): lambda a, k, r: add(
            "weights.read_mib", os.path.getsize(a[0]) / 2**20),
        ("encoders", "encode"): lambda a, k, r: add("encoders.frames_out", r.shape[0]),
        ("attention", "attend_with_mask"): lambda a, k, r: add("attention.dense_calls", 1),
        ("attention", "mha_full"): lambda a, k, r: add("attention.calls", 1),
        ("attention", "lca_chunked"): lambda a, k, r: add("attention.calls", 1),
        ("attention", "lca_global_token"): lambda a, k, r: add("attention.calls", 1),
        ("tensor", "conv1d"): lambda a, k, r: add("tensor.conv1d.gflop",
                                                  _conv1d_flop(a, k, r) / 1e9),
        ("tensor", "linear_rows"): lambda a, k, r: add("tensor.linear_rows.gflop",
                                                       _gemm_flop(a, k, r) / 1e9),
        ("tensor", "matmul"): lambda a, k, r: add("tensor.linear_rows.gflop",
                                                  _gemm_flop(a, k, r) / 1e9),
        ("decoders", "rnnt_greedy"): lambda a, k, r: _count_rnnt(counts, r),
    }


def _count_rnnt(counts, hyp) -> None:
    counts["decoders.joint_evals"] += hyp.joint_evals
    counts["decoders.emissions"] += len(hyp.token_ids)
    if hyp.joint_evals != hyp.frames + len(hyp.token_ids):
        counts["decoders.invariant_violations"] += 1


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (container, key, original)

    def _wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "lfab" or n.startswith("lfab.")]
        hooks = _counters(self.counts)
        for mod_name, names in GROUPS.items():
            mod = sys.modules[f"lfab.{mod_name}"]
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original,
                                     hooks.get((mod_name, fn_name)))
                for m in modules:
                    self._rebind(vars(m), original, wrapper)
                    for value in list(vars(m).values()):
                        if isinstance(value, dict):
                            self._rebind(value, original, wrapper)

    def _rebind(self, container: dict, original, wrapper) -> None:
        for key, value in list(container.items()):
            if value is original:
                container[key] = wrapper
                self._patches.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, f)


def group_of(span_name: str) -> str:
    mod_name, fn_name = span_name.split(".", 1)
    return GROUPS[mod_name][fn_name]


def self_times(spans) -> tuple[dict[str, float], float]:
    """(self seconds per group, summed duration of root spans)."""
    child_time = [0.0] * len(spans)
    root_wall = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            root_wall += end - start
    groups = dict.fromkeys(SELF_GROUPS, 0.0)
    for (name, start, end, _, _), children in zip(spans, child_time):
        groups[group_of(name)] += (end - start) - children
    return groups, root_wall
