"""Command-line surface: transcribe, bench, max-length, score, gen-weights,
manifest-stats.

Configuration comes from ``--config``, which names either a built-in preset
(see PRESETS) or a JSON file with the same keys. All randomness flows from
one seed; nothing reads ambient entropy. Exit codes: 0 ok, 2 bad input,
3 bad config, 4 bad weights file, 5 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import logging
import math
import os
import resource
import sys

from . import bench, encoders, frontend, metrics
from .attention import AttentionConfig
from .encoders import EncoderConfig, EncoderModel
from .errors import AudioFormatError, ConfigError, ShapeError, WeightsFormatError
from .weights import atomic_write, read_weights_file, write_weights_file

log = logging.getLogger("lfab")

DEFAULT_BUDGET_BYTES = 48 * 2**30
# longest bench duration, one hour: synthesising it peaks near 3 GB
MAX_BENCH_SECONDS = 3600.0

# Presets come in two scales: "toy-*" for fast local runs and tests,
# "table2-*" sized so parameter counts land near 120/140/120/114 M.
PRESETS: dict[str, dict] = {
    "toy-quartznet2": {
        "family": "conv_only", "model_dim": 64, "channels": 64, "num_blocks": 8,
    },
    "toy-contextnet": {
        "family": "conv_se", "model_dim": 64, "channels": 32, "num_blocks": 8,
    },
    "toy-citrinet": {
        "family": "conv_se_citrinet", "model_dim": 64, "channels": 32,
        "num_blocks": 8, "kernel_sizes": [5, 3, 7, 5, 9, 5, 7, 3],
    },
    "toy-conformer": {
        "family": "conformer_full", "model_dim": 64, "channels": 64,
        "num_blocks": 4, "heads": 4, "head_dim": 16,
    },
    "toy-fastconformer": {
        "family": "conformer_lca", "model_dim": 64, "channels": 64,
        "num_blocks": 4, "heads": 4, "head_dim": 16,
        "left_context": 16, "right_context": 16,
    },
    "toy-fastconformer-gt": {
        "family": "conformer_lca_gt", "model_dim": 64, "channels": 64,
        "num_blocks": 4, "heads": 4, "head_dim": 16,
        "left_context": 16, "right_context": 16,
    },
    "table2-quartznet2": {
        "family": "conv_only", "model_dim": 1024, "channels": 1024,
        "num_blocks": 112,
    },
    "table2-contextnet": {
        "family": "conv_se", "model_dim": 512, "channels": 592,
        "num_blocks": 16,
    },
    "table2-conformer": {
        "family": "conformer_full", "model_dim": 512, "channels": 512,
        "num_blocks": 20, "heads": 4, "head_dim": 128,
    },
    "table2-fastconformer": {
        "family": "conformer_lca", "model_dim": 512, "channels": 512,
        "num_blocks": 18, "heads": 4, "head_dim": 128,
        "left_context": 128, "right_context": 128,
    },
}

_ATTENTION_KEYS = ("heads", "head_dim", "left_context", "right_context")
_ENCODER_KEYS = ("model_dim", "num_blocks", "channels", "kernel_sizes")
# integer config keys and the least value each accepts
_INT_MINIMUM = {"heads": 1, "head_dim": 1, "left_context": 0, "right_context": 0,
                "model_dim": 1, "num_blocks": 1, "channels": 1}
# and the most, where a larger value would run for hours instead of failing
_INT_MAXIMUM = {"num_blocks": 1024}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: encoder shape plus run-level knobs."""

    encoder: EncoderConfig
    seed: int = 0
    budget_bytes: int = DEFAULT_BUDGET_BYTES


def _check_int(key: str, value, minimum: int, maximum: float = math.inf) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        bound = f"in [{minimum}, {maximum}]" if maximum < math.inf else f">= {minimum}"
        raise ConfigError(f"{key} must be an integer {bound}, got {value!r}")


def encoder_config_from_dict(raw: dict) -> EncoderConfig:
    d = dict(raw)
    for key, minimum in _INT_MINIMUM.items():
        if key in d:
            _check_int(key, d[key], minimum, _INT_MAXIMUM.get(key, math.inf))
    try:
        family = d.pop("family")
    except KeyError:
        raise ConfigError("config is missing 'family'") from None
    att_kwargs = {k: d.pop(k) for k in _ATTENTION_KEYS if k in d}
    for key in ("left_context", "right_context"):
        if family == encoders.CONFORMER_FULL and key in att_kwargs:
            raise ConfigError(f"conformer_full attends to every frame; {key} does not apply")
    attention = None
    if att_kwargs:
        try:
            heads = att_kwargs.pop("heads")
            head_dim = att_kwargs.pop("head_dim")
        except KeyError as e:
            raise ConfigError(
                f"attention config requires {e.args[0]!r}"
            ) from None
        attention = AttentionConfig(heads, head_dim, **att_kwargs,
                                    use_global_token=family == encoders.CONFORMER_LCA_GT)
    if d.get("kernel_sizes") is not None:
        if not isinstance(d["kernel_sizes"], list):
            raise ConfigError(f"kernel_sizes must be a list, got {d['kernel_sizes']!r}")
        for k in d["kernel_sizes"]:
            _check_int("kernel_sizes", k, 1)
    unknown = sorted(set(d) - set(_ENCODER_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return EncoderConfig(family=family, attention=attention, **d)


def resolve_run_config(name_or_path: str) -> RunConfig:
    """Resolve a --config value: a preset name or a JSON file path."""
    if name_or_path in PRESETS:
        raw = dict(PRESETS[name_or_path])
    else:
        if not os.path.exists(name_or_path):
            names = ", ".join(sorted(PRESETS))
            raise ConfigError(
                f"{name_or_path!r} is neither a preset ({names}) nor a config file"
            )
        with open(name_or_path, encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise ConfigError(f"config file {name_or_path!r}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {name_or_path!r} must hold a JSON object")
    seed = raw.pop("seed", 0)
    budget = raw.pop("budget_bytes", DEFAULT_BUDGET_BYTES)
    _check_int("seed", seed, 0)
    _check_int("budget_bytes", budget, 1)
    return RunConfig(encoder=encoder_config_from_dict(raw), seed=seed, budget_bytes=budget)


def build_model(rc: RunConfig, seed: int, weights_path=None) -> EncoderModel:
    """Build encoder plus both heads, seeded or loaded from a weights file.

    An encoder whose float32 weights alone exceed physical memory is a
    ConfigError, raised before any weight is read or drawn.
    """
    n = encoders.expected_parameter_count(rc.encoder)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 4 * n > ram:
        raise ConfigError(f"the encoder's {n} parameters need {4 * n} bytes as float32, "
                          f"more than the {ram} bytes of physical memory")
    source = read_weights_file(weights_path) if weights_path else None
    model = encoders.build(rc.encoder, seed, source)
    encoders.attach_heads(model, source=source)
    if source:
        extra = ", ".join(sorted(source)[:3])
        raise WeightsFormatError(
            f"{len(source)} unused weight entries (first: {extra})"
        )
    log.info("built %s model, %d parameters", rc.encoder.family,
             model.parameter_count)
    return model


def _effective_seed(rc: RunConfig, args) -> int:
    if args.seed is None:
        return rc.seed
    _check_int("--seed", args.seed, 0)
    return args.seed


# ---------------------------------------------------------------------------
# commands


@contextlib.contextmanager
def _naming(path):
    """Name the file in an audio or shape error raised inside."""
    try:
        yield
    except (AudioFormatError, ShapeError) as e:
        raise AudioFormatError(f"{path}: {e}") from e


def cmd_transcribe(args) -> int:
    rc = resolve_run_config(args.config)
    audio = []  # the --audio file's AudioBuffer
    if args.audio is not None:
        paths = [args.audio]
        # read before the model is built, so a bad file fails at once
        with _naming(args.audio):
            audio.append(frontend.read_wav(args.audio))
    else:
        entries = metrics.read_manifest(args.manifest)
        base = os.path.dirname(os.path.abspath(args.manifest))
        paths = [
            e.audio_filepath
            if os.path.isabs(e.audio_filepath)
            else os.path.join(base, e.audio_filepath)
            for e in entries
        ]
    model = build_model(rc, _effective_seed(rc, args), args.weights)
    totals = dict.fromkeys(bench.STAGES, 0.0)
    for path in paths:
        # the transcripts already printed stand; the message names the file
        with _naming(path):
            hyp, stages = bench.run_pipeline(
                model, args.decoder, audio.pop() if audio else frontend.read_wav(path))
        print(hyp.text)
        for key in totals:
            totals[key] += stages[key]
        log.debug("%s: %d tokens in %.3fs, peak RSS %.1f MiB", path, len(hyp.token_ids),
                  sum(stages.values()), _peak_rss_mib())
    # timing goes to stderr so stdout stays byte-identical across runs
    print(
        "timing frontend={frontend_s:.3f}s encoder={encoder_s:.3f}s "
        "decoder={decoder_s:.3f}s".format(**totals),
        file=sys.stderr,
    )
    return 0


def _peak_rss_mib() -> float:
    """The process's peak resident set so far (ru_maxrss: KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _parse_durations(text: str) -> list[float]:
    try:
        durations = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        durations = []
    if not durations or not all(map(math.isfinite, durations)):
        raise ValueError(f"bad duration list {text!r}: need one or more finite numbers")
    if max(durations) > MAX_BENCH_SECONDS:
        raise ValueError(f"duration {max(durations):g} s is over the {MAX_BENCH_SECONDS:g} s bound")
    return durations


def _check_out_dir(path: str) -> None:
    """Raise, before the work, the OSError atomic_write would raise after
    it when --out's directory does not exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def cmd_bench(args) -> int:
    rc = resolve_run_config(args.config)
    _check_out_dir(args.out)
    durations = bench.check_sweep(_parse_durations(args.durations), args.repeats)
    seed = _effective_seed(rc, args)
    model = build_model(rc, seed, args.weights)
    report = bench.sweep_rtf(model, args.decoder, durations, seed=seed,
                             repeats=args.repeats)
    atomic_write(args.out, [report.csv_text().encode()])
    log.info("wrote %d samples to %s", len(report.samples), args.out)
    return 0


def cmd_max_length(args) -> int:
    rc = resolve_run_config(args.config)
    budget = rc.budget_bytes if args.budget_bytes is None else args.budget_bytes
    seconds = bench.find_max_duration(rc.encoder, budget)
    q = (5 * seconds + 1) // 3  # minutes * 100 rounded as :.2f would, in integers
    print(f"{seconds} {q // 100}.{q % 100:02d}")
    return 0


def cmd_score(args) -> int:
    with open(args.ref_file, encoding="utf-8") as f:
        ref = f.read()
    with open(args.hyp_file, encoding="utf-8") as f:
        hyp = f.read()
    result = metrics.wer(ref, hyp)
    print(f"{result.wer * 100:.2f}")
    return 0


def cmd_gen_weights(args) -> int:
    rc = resolve_run_config(args.config)
    _check_out_dir(args.out)
    model = build_model(rc, _effective_seed(rc, args))
    write_weights_file(args.out, model.weights)
    log.info("wrote %d entries to %s", len(model.weights), args.out)
    return 0


def cmd_manifest_stats(args) -> int:
    stats = metrics.manifest_stats(metrics.read_manifest(args.manifest))
    print(
        f"count={stats['count']} min_min={stats['min_min']:.2f} "
        f"max_min={stats['max_min']:.2f} mean_min={stats['mean_min']:.2f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_config(p, with_seed=True) -> None:
    p.add_argument("--config", required=True,
                   help="preset name or JSON config path")
    if with_seed:
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfab",
        description="long-form audio encoder/decoder benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transcribe", help="decode one WAV or a manifest")
    _add_config(p)
    p.add_argument("--weights", help="weights file (seeded random otherwise)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--audio", help="a 16 kHz mono WAV file")
    src.add_argument("--manifest", help="JSON-lines manifest of WAV files")
    p.add_argument("--decoder", choices=("ctc", "rnnt"), default="ctc")
    p.set_defaults(fn=cmd_transcribe)

    p = sub.add_parser("bench", help="RTF sweep over synthetic audio")
    _add_config(p)
    p.add_argument("--weights")
    p.add_argument("--durations", required=True,
                   help="comma-separated seconds, ascending (e.g. 30,60), "
                        f"each at most {MAX_BENCH_SECONDS:g}")
    p.add_argument("--decoder", choices=("ctc", "rnnt"), default="ctc")
    p.add_argument("--repeats", type=int, default=bench.DEFAULT_REPEATS)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("max-length",
                       help="longest single pass under a memory budget")
    _add_config(p, with_seed=False)
    p.add_argument("--budget-bytes", type=int, default=None)
    p.set_defaults(fn=cmd_max_length)

    p = sub.add_parser("score", help="WER of a hypothesis file vs a reference")
    p.add_argument("--ref-file", required=True)
    p.add_argument("--hyp-file", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("gen-weights", help="write a seeded weights file")
    _add_config(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_weights)

    p = sub.add_parser("manifest-stats", help="duration statistics in minutes")
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_manifest_stats)

    return parser


_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("LFAB_LOG", "")
    if not name:
        return
    try:
        level = _LOG_LEVELS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"LFAB_LOG must be one of error, info, debug; got {name!r}"
        ) from None
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fail(code: int, exc: BaseException) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.fn(args)
    # ordering matters: these are all ValueError subclasses
    except AudioFormatError as e:
        return _fail(2, e)
    except ConfigError as e:
        return _fail(3, e)
    except WeightsFormatError as e:
        return _fail(4, e)
    except (OSError, ValueError) as e:
        return _fail(2, e)
    except Exception as e:
        log.exception("internal error")
        return _fail(5, e)


if __name__ == "__main__":
    sys.exit(main())
