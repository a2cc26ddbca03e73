"""Encoder families: conv-only, conv+SE, and Conformer variants.

All families consume (T, 80) log-mel features and emit (T', model_dim) frames
where T' = T / downsample_rate (4x for the conv-only family, 8x otherwise).
Convolutions run channels-first; "same" padding everywhere, so frame counts
follow ceil(T / stride) per strided layer.

A model is its config, its seed and one dict of named weights. One entry
list (_entries, and _head_entries for the heads) names every weight with its
shape and init in draw order, which is also the weights file's order. build
draws the entries uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from a single
seeded generator, so a (config, seed) pair pins every bit of the model, or
loads them by name from a weights file. Norm layers start as pass-throughs
(gamma 1, beta 0, stats 0/1). The forward pass reads the dict by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .attention import (
    AttentionConfig,
    AttentionWeights,
    lca_chunked,
    lca_global_token,
    mha_full,
)
from .decoders import RnntDecoderWeights, default_vocab
from .errors import ConfigError, ShapeError, WeightsFormatError
from .tensor import Tensor

FEATURE_DIM = 80

CONV_ONLY = "conv_only"
CONV_SE = "conv_se"
CONV_SE_CITRINET = "conv_se_citrinet"
CONFORMER_FULL = "conformer_full"
CONFORMER_LCA = "conformer_lca"
CONFORMER_LCA_GT = "conformer_lca_gt"

FAMILIES = (CONV_ONLY, CONV_SE, CONV_SE_CITRINET, CONFORMER_FULL, CONFORMER_LCA, CONFORMER_LCA_GT)
_CONFORMER_FAMILIES = (CONFORMER_FULL, CONFORMER_LCA, CONFORMER_LCA_GT)

_FIXED_KERNELS = {CONV_ONLY: 7, CONV_SE: 5, CONV_SE_CITRINET: 5}
_CONFORMER_CONV_KERNEL = 9
SE_REDUCTION = 8  # SE bottleneck: c_out // SE_REDUCTION hidden channels
FF_EXPANSION = 4  # conformer feed-forward width: FF_EXPANSION * model_dim


@dataclass
class EncoderConfig:
    family: str
    model_dim: int = 64
    num_blocks: int = 8
    channels: int = 64
    kernel_sizes: tuple[int, ...] | None = None
    attention: AttentionConfig | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.model_dim < 1 or self.num_blocks < 1 or self.channels < 1:
            raise ConfigError("model_dim, num_blocks and channels must be positive")
        if self.family == CONV_ONLY and self.model_dim != self.channels:
            raise ConfigError("conv_only output width is its channel count; set model_dim = channels")
        if self.family in (CONV_SE, CONV_SE_CITRINET) and self.num_blocks % 4 != 0:
            raise ConfigError(
                f"{self.family} splits blocks over 4 segments; "
                f"num_blocks {self.num_blocks} not divisible by 4"
            )
        if self.family == CONV_SE_CITRINET:
            if self.kernel_sizes is None:
                raise ConfigError("citrinet requires an explicit per-block kernel list")
            self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
            if len(self.kernel_sizes) != self.num_blocks:
                raise ConfigError(
                    f"kernel list length {len(self.kernel_sizes)} != num_blocks {self.num_blocks}"
                )
            if any(k < 1 or k % 2 == 0 for k in self.kernel_sizes):
                raise ConfigError("citrinet kernels must be positive odd ints")
        elif self.kernel_sizes is not None:
            raise ConfigError("kernel_sizes is only valid for the citrinet family")
        if self.family in _CONFORMER_FAMILIES:
            if self.attention is None:
                raise ConfigError(f"{self.family} requires an attention config")
            if self.attention.model_dim != self.model_dim:
                raise ConfigError(
                    f"attention heads*head_dim {self.attention.model_dim} != model_dim {self.model_dim}"
                )
            wants_gt = self.family == CONFORMER_LCA_GT
            if self.attention.use_global_token != wants_gt:
                raise ConfigError(
                    f"{self.family}: attention.use_global_token must be {wants_gt}"
                )
        elif self.attention is not None:
            raise ConfigError(f"{self.family} takes no attention config")

    @property
    def downsample_rate(self) -> int:
        return math.prod(s.stride for s in conv_schedule(self))

    @property
    def kernel_size(self) -> int:
        """The family's depthwise kernel: the conv layers' of conv_only and
        conv_se, the conv module's of the conformers. Citrinet's blocks take
        kernel_sizes instead."""
        return _FIXED_KERNELS.get(self.family, _CONFORMER_CONV_KERNEL)

    def conv_se_widths(self) -> list[int]:
        """Per-segment channel widths [c, 2c, 4c, 8c]."""
        return [self.channels * 2**s for s in range(4)]


# ---------------------------------------------------------------------------
# the model and its entry list


@dataclass(frozen=True)
class ConvSpec:
    """One depthwise-separable conv layer: its weight prefix and shapes.

    activation is a key of _ACTS, looked up at call time, so that a function
    rebound in that dict (as a tracer does) is the one that runs.
    """

    prefix: str
    c_in: int
    c_out: int
    k: int
    stride: int
    activation: str
    se: bool
    batch_norm: bool

    @property
    def residual(self) -> bool:
        return self.stride == 1 and self.c_in == self.c_out


RNNT_EMBED_DIM = 64
RNNT_HIDDEN_DIM = 64
RNNT_JOINT_DIM = 64
_HEAD_SEED_OFFSET = 0x5EED
# the RNNT head's entries, after "head.rnnt.", in RnntDecoderWeights' field order
_RNNT_NAMES = ("embedding", "lstm.w_x", "lstm.w_h", "lstm.b",
               "joint.w_e", "joint.w_p", "joint.b", "joint.w_out")
# a block's attention entries, after "att.", in AttentionWeights' field order
_ATTENTION_NAMES = ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o")


@dataclass
class EncoderModel:
    """A config, a seed and the named weights in draw order, which is also
    the weights file's order. The forward pass reads the weights by name."""

    config: EncoderConfig
    seed: int
    weights: dict[str, Tensor]

    @property
    def parameter_count(self) -> int:
        return sum(t.size for t in self.weights.values())

    @property
    def rnnt_head(self) -> RnntDecoderWeights | None:
        """The RNNT head's weights from the dict; None before attach_heads."""
        if "head.rnnt.embedding" not in self.weights:
            return None
        return RnntDecoderWeights(*(self.weights[f"head.rnnt.{n}"] for n in _RNNT_NAMES))


def conv_schedule(cfg: EncoderConfig) -> list[ConvSpec]:
    """The separable conv layers every family starts with, in draw order.

    conv_only: two stride-2 prologue layers, then residual blocks. conv_se:
    widths double per segment, stride 2 on the last block of segments 1..3.
    citrinet: uniform width, per-block kernels, stride 2 on the first block
    of segments 2..4. Both SE families downsample 8x and end in a pointwise
    epilogue that is not a separable layer. Conformers: three stride-2
    subsampling layers with no norm.
    """
    if cfg.family == CONV_ONLY:
        c, k = cfg.channels, cfg.kernel_size
        return [
            ConvSpec("prologue.0", FEATURE_DIM, c, k, 2, "relu", False, True),
            ConvSpec("prologue.1", c, c, k, 2, "relu", False, True),
        ] + [ConvSpec(f"block.{i}", c, c, k, 1, "relu", False, True) for i in range(cfg.num_blocks)]
    if cfg.family in _CONFORMER_FAMILIES:
        c, k = cfg.channels, _CONFORMER_CONV_KERNEL
        return [
            ConvSpec(f"subsample.{i}", FEATURE_DIM if i == 0 else c, c, k, 2, "relu", False, False)
            for i in range(3)
        ]
    per_seg = cfg.num_blocks // 4
    citrinet = cfg.family == CONV_SE_CITRINET
    widths = [cfg.channels] * 4 if citrinet else cfg.conv_se_widths()
    specs = [ConvSpec("prologue", FEATURE_DIM, widths[0], 5, 1, "silu", False, True)]
    for s in range(4):
        for b in range(per_seg):
            i = s * per_seg + b
            k = cfg.kernel_sizes[i] if citrinet else cfg.kernel_size
            if citrinet:
                stride = 2 if (s > 0 and b == 0) else 1
            else:
                stride = 2 if (s < 3 and b == per_seg - 1) else 1
            specs.append(ConvSpec(f"block.{i}", specs[-1].c_out, widths[s], k, stride, "silu",
                                  True, True))
    return specs


def _batch_norm_entries(prefix: str, c: int):
    for name, value in (("gamma", 1.0), ("beta", 0.0), ("mean", 0.0), ("var", 1.0)):
        yield f"{prefix}.bn.{name}", (c,), value


def _layer_norm_entries(prefix: str, d: int):
    yield f"{prefix}.gamma", (d,), 1.0
    yield f"{prefix}.beta", (d,), 0.0


def _feed_forward_entries(prefix: str, d: int, ff: int):
    yield f"{prefix}.w1", (ff, d), d
    yield f"{prefix}.b1", (ff,), d
    yield f"{prefix}.w2", (d, ff), ff
    yield f"{prefix}.b2", (d,), ff


def _entries(cfg: EncoderConfig):
    """(name, shape, init) of every encoder weight, in draw order. init is
    a fan-in (int) to draw from or a constant (float) to fill with.

    The conv schedule (per layer: SE, depthwise, pointwise, batch norm),
    then the SE families' pointwise epilogue or the conformer body: the
    projection, per block its attention, then its norms and sublayers in
    forward order, and the final norm.
    """
    specs = conv_schedule(cfg)
    for spec in specs:
        p, c_in, c_out = spec.prefix, spec.c_in, spec.c_out
        if spec.se:
            hidden = max(1, c_out // SE_REDUCTION)
            yield f"{p}.se.w1", (hidden, c_out), c_out
            yield f"{p}.se.w2", (c_out, hidden), hidden
        yield f"{p}.dw", (c_in, spec.k), spec.k
        yield f"{p}.pw", (c_out, c_in), c_in
        if spec.batch_norm:
            yield from _batch_norm_entries(p, c_out)
    if cfg.family in (CONV_SE, CONV_SE_CITRINET):
        c = specs[-1].c_out
        yield "epilogue.pw", (cfg.model_dim, c), c
    if cfg.family not in _CONFORMER_FAMILIES:
        return
    d, c, ff, k = cfg.model_dim, cfg.channels, FF_EXPANSION * cfg.model_dim, cfg.kernel_size
    yield "proj.w", (d, c), c
    yield "proj.b", (d,), c
    for i in range(cfg.num_blocks):
        p = f"block.{i}"
        for name in _ATTENTION_NAMES:
            yield f"{p}.att.{name}", (d, d) if name.startswith("w") else (d,), d
        if cfg.attention.use_global_token:
            yield f"{p}.att.global_token", (1, d), d
        yield from _layer_norm_entries(f"{p}.ln_ff1", d)
        yield from _feed_forward_entries(f"{p}.ff1", d, ff)
        yield from _layer_norm_entries(f"{p}.ln_att", d)
        yield from _layer_norm_entries(f"{p}.ln_conv", d)
        yield f"{p}.conv.pw1", (2 * d, d), d
        yield f"{p}.conv.dw", (d, k), k
        yield from _batch_norm_entries(f"{p}.conv", d)
        yield f"{p}.conv.pw2", (d, d), d
        yield from _layer_norm_entries(f"{p}.ln_ff2", d)
        yield from _feed_forward_entries(f"{p}.ff2", d, ff)
    yield from _layer_norm_entries("final_ln", d)


def _head_entries(d: int):
    """The CTC head, then the RNNT head, over d-wide encoder frames."""
    v, e, h, j = default_vocab().size, RNNT_EMBED_DIM, RNNT_HIDDEN_DIM, RNNT_JOINT_DIM
    yield "head.ctc.w", (v + 1, d), d
    yield "head.ctc.b", (v + 1,), d
    rnnt = [((v, e), e), ((4 * h, e), e), ((4 * h, h), h), ((4 * h,), h),
            ((j, d), d), ((j, h), h), ((j,), h), ((v + 1, j), j)]
    for name, (shape, fan_in) in zip(_RNNT_NAMES, rnnt):
        yield f"head.rnnt.{name}", shape, fan_in


def _draw(weights: dict[str, Tensor], entries, seed: int,
          source: dict[str, Tensor] | None) -> None:
    """Add each entry to weights, drawn from one generator seeded with seed
    or, with a source dict, popped from it by name and shape-checked."""
    rng = np.random.default_rng(seed)
    for name, shape, init in entries:
        if name in weights:
            raise ConfigError(f"duplicate weight name {name}")
        if source is not None:
            try:
                t = source.pop(name)
            except KeyError:
                raise WeightsFormatError(f"weights are missing entry {name!r}") from None
            if t.shape != shape:
                raise WeightsFormatError(
                    f"weights entry {name!r} has shape {t.shape}, expected {shape}"
                )
        elif isinstance(init, float):
            t = Tensor._wrap(np.full(shape, init, dtype=np.float32))
        else:
            bound = 1.0 / math.sqrt(init)
            t = Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32))
        weights[name] = t


def build(cfg: EncoderConfig, seed: int, source: dict[str, Tensor] | None = None) -> EncoderModel:
    """Build a model; with source, weights load by name instead of being drawn."""
    model = EncoderModel(config=cfg, seed=seed, weights={})
    _draw(model.weights, _entries(cfg), seed, source)
    _check_count(model)
    return model


def attach_heads(model: EncoderModel, source: dict[str, Tensor] | None = None) -> EncoderModel:
    """Attach the CTC head, then the RNNT head, both over the encoder's
    output and the default vocabulary. Build-phase only."""
    _draw(model.weights, _head_entries(model.config.model_dim),
          model.seed + _HEAD_SEED_OFFSET, source)
    return model


# ---------------------------------------------------------------------------
# closed-form parameter counts


def _conv_block_params(c_in: int, c_out: int, k: int, se: bool) -> int:
    n = tensor.separable_param_count(c_in, c_out, k) + 4 * c_out  # conv + BN (gamma/beta/mean/var)
    if se:
        hidden = max(1, c_out // SE_REDUCTION)
        n += 2 * hidden * c_out
    return n


def expected_parameter_count(cfg: EncoderConfig) -> int:
    """Closed-form parameter count of a built (head-less) encoder."""
    if cfg.family == CONV_ONLY:
        c, k = cfg.channels, cfg.kernel_size
        n = _conv_block_params(FEATURE_DIM, c, k, False)
        n += _conv_block_params(c, c, k, False)
        n += cfg.num_blocks * _conv_block_params(c, c, k, False)
        return n
    if cfg.family in (CONV_SE, CONV_SE_CITRINET):
        per_seg = cfg.num_blocks // 4
        citrinet = cfg.family == CONV_SE_CITRINET
        widths = [cfg.channels] * 4 if citrinet else cfg.conv_se_widths()
        n = _conv_block_params(FEATURE_DIM, widths[0], 5, False)
        prev = widths[0]
        for s in range(4):
            for b in range(per_seg):
                k = cfg.kernel_sizes[s * per_seg + b] if citrinet else cfg.kernel_size
                n += _conv_block_params(prev, widths[s], k, True)
                prev = widths[s]
        n += cfg.model_dim * prev
        return n
    d, c, ff, k = cfg.model_dim, cfg.channels, FF_EXPANSION * cfg.model_dim, cfg.kernel_size
    k_sub = _CONFORMER_CONV_KERNEL
    n = (tensor.separable_param_count(FEATURE_DIM, c, k_sub)
         + 2 * tensor.separable_param_count(c, c, k_sub))
    n += d * c + d  # projection
    per_block = (
        2 * (ff * d + ff + d * ff + d)  # two feed-forwards
        + 4 * d * d + 4 * d  # attention projections
        + (d if cfg.family == CONFORMER_LCA_GT else 0)
        + 2 * d * d + d * k + 4 * d + d * d  # conv module (pw1, dw, BN, pw2)
        + 4 * 2 * d  # four layer norms
    )
    n += cfg.num_blocks * per_block
    n += 2 * d  # final layer norm
    return n


def _check_count(model: EncoderModel) -> None:
    got, want = model.parameter_count, expected_parameter_count(model.config)
    if got != want:
        raise AssertionError(
            f"parameter accounting broke: built {got}, closed form {want}"
        )


# ---------------------------------------------------------------------------
# forward passes: each layer reads its weights from the dict by name


def se_module(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Squeeze-and-excitation: mean over T, bottleneck, sigmoid channel gains."""
    s = tensor.mean_over_time(x)  # (C,)
    col = Tensor._wrap(s.array.reshape(-1, 1))
    h = tensor.silu(tensor.matmul(w1, col))
    g = tensor.sigmoid(tensor.matmul(w2, h))
    return tensor.scale_channels(x, Tensor._wrap(g.array.reshape(-1)))


_ACTS = {"relu": tensor.relu, "silu": tensor.silu}
_ATTENTION = {CONFORMER_FULL: mha_full, CONFORMER_LCA: lca_chunked,
              CONFORMER_LCA_GT: lca_global_token}


def _bn(x: Tensor, w: dict[str, Tensor], prefix: str) -> Tensor:
    return tensor.batch_norm_infer(x, w[f"{prefix}.bn.gamma"], w[f"{prefix}.bn.beta"],
                                   w[f"{prefix}.bn.mean"], w[f"{prefix}.bn.var"])


def _conv_block_forward(x: Tensor, w: dict[str, Tensor], spec: ConvSpec) -> Tensor:
    p = spec.prefix
    y = tensor.depthwise_separable_conv1d(x, w[f"{p}.dw"], w[f"{p}.pw"], stride=spec.stride)
    if spec.batch_norm:
        y = _bn(y, w, p)
    y = _ACTS[spec.activation](y)
    if spec.se:
        y = se_module(y, w[f"{p}.se.w1"], w[f"{p}.se.w2"])
    if spec.residual:
        y = tensor.add(x, y)
    return y


def sinusoidal_positions(t: int, d: int) -> Tensor:
    """Absolute sinusoidal position encoding, added to encoder input once."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return Tensor._wrap(pe.astype(np.float32))


def _feed_forward(x: Tensor, w: dict[str, Tensor], prefix: str) -> Tensor:
    h = tensor.silu(tensor.linear_rows(x, w[f"{prefix}.w1"], w[f"{prefix}.b1"]))
    return tensor.linear_rows(h, w[f"{prefix}.w2"], w[f"{prefix}.b2"])


def _conv_module_forward(x: Tensor, w: dict[str, Tensor], prefix: str) -> Tensor:
    d, w_dw = x.shape[1], w[f"{prefix}.dw"]
    z = tensor.matmul(w[f"{prefix}.pw1"], tensor.transpose(x))  # (2D, T)
    # the GLU halves are views of z's rows; z stays referenced while they live
    gated = tensor.mul(Tensor._wrap(z.array[:d]), tensor.sigmoid(Tensor._wrap(z.array[d:])))
    y = tensor.conv1d(gated, Tensor._wrap(w_dw.array.reshape(d, 1, w_dw.shape[1])))
    y = _bn(y, w, prefix)
    y = tensor.silu(y)
    return tensor.transpose(tensor.matmul(w[f"{prefix}.pw2"], y))


def _attention_weights(w: dict[str, Tensor], prefix: str, cfg: EncoderConfig) -> AttentionWeights:
    p = f"{prefix}.att"
    gt = w[f"{p}.global_token"] if cfg.attention.use_global_token else None
    return AttentionWeights(*(w[f"{p}.{name}"] for name in _ATTENTION_NAMES), global_token=gt)


def _ln(x: Tensor, w: dict[str, Tensor], prefix: str) -> Tensor:
    return tensor.layer_norm(x, w[f"{prefix}.gamma"], w[f"{prefix}.beta"])


def conformer_block_forward(x: Tensor, w: dict[str, Tensor], prefix: str,
                            cfg: EncoderConfig) -> Tensor:
    """Pre-norm: half FF, attention, conv module, half FF; residual around each."""
    half = Tensor._wrap(np.float32(0.5) * _feed_forward(
        _ln(x, w, f"{prefix}.ln_ff1"), w, f"{prefix}.ff1").array)
    x = tensor.add(x, half)
    att_w = _attention_weights(w, prefix, cfg)
    x = tensor.add(x, _ATTENTION[cfg.family](_ln(x, w, f"{prefix}.ln_att"), att_w, cfg.attention))
    x = tensor.add(x, _conv_module_forward(_ln(x, w, f"{prefix}.ln_conv"), w, f"{prefix}.conv"))
    half = Tensor._wrap(np.float32(0.5) * _feed_forward(
        _ln(x, w, f"{prefix}.ln_ff2"), w, f"{prefix}.ff2").array)
    return tensor.add(x, half)


def encode(model: EncoderModel, feats: Tensor) -> Tensor:
    """feats: (T, 80) -> (T', model_dim): the conv schedule, then the SE
    families' pointwise epilogue or the conformer body. A caller that hands
    over its only reference to feats has them freed once transposed."""
    if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
        raise ShapeError(f"features must be (T, {FEATURE_DIM}), got {feats.shape}")
    cfg, w = model.config, model.weights
    t, ds = feats.shape[0], cfg.downsample_rate
    if t < ds:
        raise ShapeError(f"input too short: {t} frames, need at least {ds}")
    x = tensor.transpose(feats)  # (80, T)
    del feats
    for spec in conv_schedule(cfg):
        x = _conv_block_forward(x, w, spec)
    if cfg.family in (CONV_SE, CONV_SE_CITRINET):
        x = tensor.matmul(w["epilogue.pw"], x)
    x = tensor.transpose(x)
    if cfg.family not in _CONFORMER_FAMILIES:
        return x
    x = tensor.linear_rows(x, w["proj.w"], w["proj.b"])
    x = tensor.add(x, sinusoidal_positions(x.shape[0], x.shape[1]))
    for i in range(cfg.num_blocks):
        x = conformer_block_forward(x, w, f"block.{i}", cfg)
    return _ln(x, w, "final_ln")


def ctc_logits(model: EncoderModel, encoded: Tensor) -> Tensor:
    w = model.weights
    if "head.ctc.w" not in w:
        raise ConfigError("model has no ctc head attached")
    return tensor.linear_rows(encoded, w["head.ctc.w"], w["head.ctc.b"])
