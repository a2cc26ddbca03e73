"""Encoder families: conv-only, conv+SE, and Conformer variants.

All families consume (T, 80) log-mel features and emit (T', model_dim) frames
where T' = T / downsample_rate (4x for the conv-only family, 8x otherwise).
Convolutions run channels-first; "same" padding everywhere, so frame counts
follow ceil(T / stride) per strided layer.

Weights are drawn uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from a single
seeded generator in a fixed order, so a (config, seed) pair pins every bit of
the model. Norm layers start as pass-throughs (gamma 1, beta 0, stats 0/1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# layer containers


@dataclass
class BatchNorm:
    gamma: Tensor
    beta: Tensor
    mean: Tensor
    var: Tensor


@dataclass
class SEWeights:
    w1: Tensor  # (C // r, C)
    w2: Tensor  # (C, C // r)


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


@dataclass
class ConvBlock:
    spec: ConvSpec
    w_dw: Tensor  # (C_in, K)
    w_pw: Tensor  # (C_out, C_in)
    bn: BatchNorm | None
    se: SEWeights | None

    @property
    def residual(self) -> bool:
        return self.spec.stride == 1 and self.spec.c_in == self.spec.c_out


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class FeedForward:
    w1: Tensor  # (ff, D)
    b1: Tensor
    w2: Tensor  # (D, ff)
    b2: Tensor


@dataclass
class ConvModule:
    w_pw1: Tensor  # (2D, D) -> GLU halves
    w_dw: Tensor  # (D, K)
    bn: BatchNorm
    w_pw2: Tensor  # (D, D)


@dataclass
class ConformerBlock:
    ln_ff1: LayerNormParams
    ff1: FeedForward
    ln_att: LayerNormParams
    att: AttentionWeights
    ln_conv: LayerNormParams
    conv: ConvModule
    ln_ff2: LayerNormParams
    ff2: FeedForward


@dataclass
class CtcHead:
    w: Tensor  # (V+1, D)
    b: Tensor


@dataclass
class EncoderModel:
    config: EncoderConfig
    seed: int
    weights: dict[str, Tensor]
    conv_stack: list[ConvBlock] = field(default_factory=list)
    epilogue: Tensor | None = None  # (model_dim, C) pointwise, SE families
    proj_w: Tensor | None = None
    proj_b: Tensor | None = None
    blocks: list[ConformerBlock] = field(default_factory=list)
    final_ln: LayerNormParams | None = None
    ctc_head: CtcHead | None = None
    rnnt_head: RnntDecoderWeights | None = None

    @property
    def parameter_count(self) -> int:
        return sum(t.size for t in self.weights.values())


# ---------------------------------------------------------------------------
# init helpers


class _Registry:
    """Draws weights in declaration order from one generator and names them.

    With a source dict, entries are taken from it by name (shape-checked)
    instead of drawn, so a stored model reloads into the same structure.
    """

    def __init__(self, seed: int, source: dict[str, Tensor] | None = None):
        self.rng = np.random.default_rng(seed)
        self.weights: dict[str, Tensor] = {}
        self.source = source

    def _add(self, name: str, t: Tensor) -> Tensor:
        if name in self.weights:
            raise ConfigError(f"duplicate weight name {name}")
        self.weights[name] = t
        return t

    def _take(self, name: str, shape: tuple[int, ...]) -> Tensor:
        try:
            t = self.source.pop(name)
        except KeyError:
            raise WeightsFormatError(f"weights are missing entry {name!r}") from None
        if t.shape != tuple(shape):
            raise WeightsFormatError(
                f"weights entry {name!r} has shape {t.shape}, expected {tuple(shape)}"
            )
        return self._add(name, t)

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        if self.source is not None:
            return self._take(name, shape)
        bound = 1.0 / math.sqrt(fan_in)
        return self._add(name, Tensor(self.rng.uniform(-bound, bound, size=shape).astype(np.float32)))

    def const(self, name: str, shape: tuple[int, ...], value: float) -> Tensor:
        if self.source is not None:
            return self._take(name, shape)
        return self._add(name, Tensor._wrap(np.full(shape, value, dtype=np.float32)))

    def batch_norm(self, prefix: str, c: int) -> BatchNorm:
        return BatchNorm(
            gamma=self.const(f"{prefix}.bn.gamma", (c,), 1.0),
            beta=self.const(f"{prefix}.bn.beta", (c,), 0.0),
            mean=self.const(f"{prefix}.bn.mean", (c,), 0.0),
            var=self.const(f"{prefix}.bn.var", (c,), 1.0),
        )

    def layer_norm(self, prefix: str, d: int) -> LayerNormParams:
        return LayerNormParams(
            gamma=self.const(f"{prefix}.gamma", (d,), 1.0),
            beta=self.const(f"{prefix}.beta", (d,), 0.0),
        )

    def conv_block(self, spec: ConvSpec) -> ConvBlock:
        p, c_in, c_out = spec.prefix, spec.c_in, spec.c_out
        se = None
        if spec.se:
            hidden = max(1, c_out // SE_REDUCTION)
            se = SEWeights(
                w1=self.uniform(f"{p}.se.w1", (hidden, c_out), c_out),
                w2=self.uniform(f"{p}.se.w2", (c_out, hidden), hidden),
            )
        return ConvBlock(
            spec=spec,
            w_dw=self.uniform(f"{p}.dw", (c_in, spec.k), spec.k),
            w_pw=self.uniform(f"{p}.pw", (c_out, c_in), c_in),
            bn=self.batch_norm(p, c_out) if spec.batch_norm else None,
            se=se,
        )


# ---------------------------------------------------------------------------
# layer schedule and build


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


def _build_conformer_body(model: EncoderModel, reg: _Registry) -> None:
    """Projection, conformer blocks and final norm, after the subsampling."""
    cfg = model.config
    d, c, ff = cfg.model_dim, cfg.channels, FF_EXPANSION * cfg.model_dim
    model.proj_w = reg.uniform("proj.w", (d, c), c)
    model.proj_b = reg.uniform("proj.b", (d,), c)
    for i in range(cfg.num_blocks):
        p = f"block.{i}"
        att_fields = {
            nm: reg.uniform(f"{p}.att.{nm}", (d, d), d)
            for nm in ("w_q", "w_k", "w_v", "w_o")
        }
        att_fields.update(
            (nm, reg.uniform(f"{p}.att.{nm}", (d,), d))
            for nm in ("b_q", "b_k", "b_v", "b_o")
        )
        gt = (
            reg.uniform(f"{p}.att.global_token", (1, d), d)
            if cfg.attention.use_global_token
            else None
        )
        att_w = AttentionWeights(**att_fields, global_token=gt)
        model.blocks.append(ConformerBlock(
            ln_ff1=reg.layer_norm(f"{p}.ln_ff1", d),
            ff1=FeedForward(
                w1=reg.uniform(f"{p}.ff1.w1", (ff, d), d),
                b1=reg.uniform(f"{p}.ff1.b1", (ff,), d),
                w2=reg.uniform(f"{p}.ff1.w2", (d, ff), ff),
                b2=reg.uniform(f"{p}.ff1.b2", (d,), ff),
            ),
            ln_att=reg.layer_norm(f"{p}.ln_att", d),
            att=att_w,
            ln_conv=reg.layer_norm(f"{p}.ln_conv", d),
            conv=ConvModule(
                w_pw1=reg.uniform(f"{p}.conv.pw1", (2 * d, d), d),
                w_dw=reg.uniform(f"{p}.conv.dw", (d, cfg.kernel_size), cfg.kernel_size),
                bn=reg.batch_norm(f"{p}.conv", d),
                w_pw2=reg.uniform(f"{p}.conv.pw2", (d, d), d),
            ),
            ln_ff2=reg.layer_norm(f"{p}.ln_ff2", d),
            ff2=FeedForward(
                w1=reg.uniform(f"{p}.ff2.w1", (ff, d), d),
                b1=reg.uniform(f"{p}.ff2.b1", (ff,), d),
                w2=reg.uniform(f"{p}.ff2.w2", (d, ff), ff),
                b2=reg.uniform(f"{p}.ff2.b2", (d,), ff),
            ),
        ))
    model.final_ln = reg.layer_norm("final_ln", d)


def build(cfg: EncoderConfig, seed: int, source: dict[str, Tensor] | None = None) -> EncoderModel:
    """Build a model; with source, weights load by name instead of being drawn."""
    reg = _Registry(seed, source)
    model = EncoderModel(config=cfg, seed=seed, weights=reg.weights,
                         conv_stack=[reg.conv_block(s) for s in conv_schedule(cfg)])
    if cfg.family in _CONFORMER_FAMILIES:
        _build_conformer_body(model, reg)
    elif cfg.family in (CONV_SE, CONV_SE_CITRINET):
        c = model.conv_stack[-1].spec.c_out
        model.epilogue = reg.uniform("epilogue.pw", (cfg.model_dim, c), c)
    _check_count(model)
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
# heads


RNNT_EMBED_DIM = 64
RNNT_HIDDEN_DIM = 64
RNNT_JOINT_DIM = 64
_HEAD_SEED_OFFSET = 0x5EED


def attach_heads(model: EncoderModel, source: dict[str, Tensor] | None = None) -> EncoderModel:
    """Attach the CTC head, then the RNNT head, both over the encoder's
    output and the default vocabulary. Build-phase only."""
    v, d = default_vocab().size, model.config.model_dim
    e, h, j = RNNT_EMBED_DIM, RNNT_HIDDEN_DIM, RNNT_JOINT_DIM
    reg = _Registry(model.seed + _HEAD_SEED_OFFSET, source)
    reg.weights = model.weights
    model.ctc_head = CtcHead(
        w=reg.uniform("head.ctc.w", (v + 1, d), d),
        b=reg.uniform("head.ctc.b", (v + 1,), d),
    )
    model.rnnt_head = RnntDecoderWeights(
        embedding=reg.uniform("head.rnnt.embedding", (v, e), e),
        lstm_w_x=reg.uniform("head.rnnt.lstm.w_x", (4 * h, e), e),
        lstm_w_h=reg.uniform("head.rnnt.lstm.w_h", (4 * h, h), h),
        lstm_b=reg.uniform("head.rnnt.lstm.b", (4 * h,), h),
        w_enc=reg.uniform("head.rnnt.joint.w_e", (j, d), d),
        w_pred=reg.uniform("head.rnnt.joint.w_p", (j, h), h),
        b_joint=reg.uniform("head.rnnt.joint.b", (j,), h),
        w_out=reg.uniform("head.rnnt.joint.w_out", (v + 1, j), j),
    )
    return model


# ---------------------------------------------------------------------------
# forward passes


def se_module(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Squeeze-and-excitation: mean over T, bottleneck, sigmoid channel gains."""
    s = tensor.mean_over_time(x)  # (C,)
    col = Tensor._wrap(s.array.reshape(-1, 1))
    h = tensor.silu(tensor.matmul(w1, col))
    g = tensor.sigmoid(tensor.matmul(w2, h))
    return tensor.scale_channels(x, Tensor._wrap(g.array.reshape(-1)))


_ACTS = {"relu": tensor.relu, "silu": tensor.silu}


def _conv_block_forward(x: Tensor, blk: ConvBlock) -> Tensor:
    y = tensor.depthwise_separable_conv1d(x, blk.w_dw, blk.w_pw, stride=blk.spec.stride)
    if blk.bn is not None:
        y = tensor.batch_norm_infer(y, blk.bn.gamma, blk.bn.beta, blk.bn.mean, blk.bn.var)
    y = _ACTS[blk.spec.activation](y)
    if blk.se is not None:
        y = se_module(y, blk.se.w1, blk.se.w2)
    if blk.residual:
        y = tensor.add(x, y)
    return y


def sinusoidal_positions(t: int, d: int) -> Tensor:
    """Absolute sinusoidal position encoding, added to encoder input once."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return Tensor._wrap(pe.astype(np.float32))


def _feed_forward(x: Tensor, ff: FeedForward) -> Tensor:
    h = tensor.silu(tensor.linear_rows(x, ff.w1, ff.b1))
    return tensor.linear_rows(h, ff.w2, ff.b2)


def _conv_module_forward(x: Tensor, cm: ConvModule) -> Tensor:
    d = x.shape[1]
    z = tensor.matmul(cm.w_pw1, tensor.transpose(x))  # (2D, T)
    # the GLU halves are views of z's rows; z stays referenced while they live
    gated = tensor.mul(Tensor._wrap(z.array[:d]), tensor.sigmoid(Tensor._wrap(z.array[d:])))
    y = tensor.conv1d(gated, Tensor._wrap(cm.w_dw.array.reshape(d, 1, cm.w_dw.shape[1])))
    y = tensor.batch_norm_infer(y, cm.bn.gamma, cm.bn.beta, cm.bn.mean, cm.bn.var)
    y = tensor.silu(y)
    return tensor.transpose(tensor.matmul(cm.w_pw2, y))


def _attention_forward(x: Tensor, w: AttentionWeights, cfg: EncoderConfig) -> Tensor:
    if cfg.family == CONFORMER_FULL:
        return mha_full(x, w, cfg.attention)
    if cfg.family == CONFORMER_LCA:
        return lca_chunked(x, w, cfg.attention)
    return lca_global_token(x, w, cfg.attention)


def _ln(x: Tensor, p: LayerNormParams) -> Tensor:
    return tensor.layer_norm(x, p.gamma, p.beta)


def conformer_block_forward(x: Tensor, blk: ConformerBlock, cfg: EncoderConfig) -> Tensor:
    """Pre-norm: half FF, attention, conv module, half FF; residual around each."""
    half = Tensor._wrap(np.float32(0.5) * _feed_forward(_ln(x, blk.ln_ff1), blk.ff1).array)
    x = tensor.add(x, half)
    x = tensor.add(x, _attention_forward(_ln(x, blk.ln_att), blk.att, cfg))
    x = tensor.add(x, _conv_module_forward(_ln(x, blk.ln_conv), blk.conv))
    half = Tensor._wrap(np.float32(0.5) * _feed_forward(_ln(x, blk.ln_ff2), blk.ff2).array)
    return tensor.add(x, half)


def encode(model: EncoderModel, feats: Tensor) -> Tensor:
    """feats: (T, 80) -> (T', model_dim): the conv schedule, then the SE
    families' pointwise epilogue or the conformer body. A caller that hands
    over its only reference to feats has them freed once transposed."""
    if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
        raise ShapeError(f"features must be (T, {FEATURE_DIM}), got {feats.shape}")
    t, ds = feats.shape[0], model.config.downsample_rate
    if t < ds:
        raise ShapeError(f"input too short: {t} frames, need at least {ds}")
    x = tensor.transpose(feats)  # (80, T)
    del feats
    for blk in model.conv_stack:
        x = _conv_block_forward(x, blk)
    if model.epilogue is not None:
        x = tensor.matmul(model.epilogue, x)
    x = tensor.transpose(x)
    if model.config.family not in _CONFORMER_FAMILIES:
        return x
    x = tensor.linear_rows(x, model.proj_w, model.proj_b)
    x = tensor.add(x, sinusoidal_positions(x.shape[0], x.shape[1]))
    for blk in model.blocks:
        x = conformer_block_forward(x, blk, model.config)
    return _ln(x, model.final_ln)


def ctc_logits(model: EncoderModel, encoded: Tensor) -> Tensor:
    if model.ctc_head is None:
        raise ConfigError("model has no ctc head attached")
    return tensor.linear_rows(encoded, model.ctc_head.w, model.ctc_head.b)
