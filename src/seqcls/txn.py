"""Temporal separable-convolution head over frame-feature sequences.

Each modality stream fixes the clip length by tail zero-padding, coarsens
time with adaptive max pooling, projects channels to a working width, then
runs residual blocks of two separable convolution layers (depthwise
temporal conv, pointwise channel mix, batch norm, relu).  A global
temporal max pool reduces each stream to a vector; streams are
concatenated and classified with an affine map.

Batch norm statistics pool every position the layer sees: the segment axis
for a single video, batch x segments for a batched forward.  Training goes
through ``txn_forward_batch`` so each optimizer step folds exactly one
batch-level statistic into the running averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import BnState, Value
from .errors import ConfigError, DataError, ShapeError


@dataclass
class TxnStreamConfig:
    """Shape of one modality stream of the convolution head."""

    modality: str
    feature_dim: int
    pad_len: int = 64
    num_segments: int = 16
    kernel_size: int = 3
    block_channels: int = 64
    num_blocks: int = 1

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigError(f"stream {self.modality!r} feature_dim must be >= 1")
        if self.pad_len < 1:
            raise ConfigError(f"stream {self.modality!r} pad_len must be >= 1")
        if not 2 <= self.num_segments <= self.pad_len:
            raise ConfigError(
                f"stream {self.modality!r} num_segments must lie in [2, pad_len]")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ConfigError(f"stream {self.modality!r} kernel_size must be odd and >= 1")
        if self.block_channels < 1:
            raise ConfigError(f"stream {self.modality!r} block_channels must be >= 1")
        if self.num_blocks < 1:
            raise ConfigError(f"stream {self.modality!r} num_blocks must be >= 1")


@dataclass
class SepConvParams:
    """One separable conv layer: depthwise kernels, pointwise mix, batch norm."""

    depthwise: Value
    pointwise_w: Value
    pointwise_b: Value
    bn_gamma: Value
    bn_beta: Value
    bn_state: BnState

    @classmethod
    def init(cls, channels: int, kernel_size: int, gen: np.random.Generator) -> "SepConvParams":
        dw = gen.normal(scale=np.sqrt(2.0 / kernel_size), size=(kernel_size, channels))
        pw = gen.normal(scale=np.sqrt(2.0 / channels), size=(channels, channels))
        return cls(depthwise=Value(dw, requires_grad=True),
                   pointwise_w=Value(pw, requires_grad=True),
                   pointwise_b=Value(np.zeros(channels), requires_grad=True),
                   bn_gamma=Value(np.ones(channels), requires_grad=True),
                   bn_beta=Value(np.zeros(channels), requires_grad=True),
                   bn_state=BnState.fresh(channels))

    def parameters(self) -> list[Value]:
        return [self.depthwise, self.pointwise_w, self.pointwise_b, self.bn_gamma, self.bn_beta]


def sep_conv_forward(params: SepConvParams, x: Value, mode: str) -> Value:
    h = ad.depthwise_conv1d(x, params.depthwise)
    h = ad.pointwise_conv1d(h, params.pointwise_w, params.pointwise_b)
    h = ad.batch_norm(h, params.bn_gamma, params.bn_beta, params.bn_state, mode=mode)
    return ad.relu(h)


@dataclass
class TxnBlockParams:
    """Residual block: two separable conv layers plus an identity shortcut."""

    layers: list[SepConvParams]

    @classmethod
    def init(cls, channels: int, kernel_size: int, gen: np.random.Generator) -> "TxnBlockParams":
        return cls(layers=[SepConvParams.init(channels, kernel_size, gen) for _ in range(2)])

    def parameters(self) -> list[Value]:
        return [p for layer in self.layers for p in layer.parameters()]


def txn_block_forward(params: TxnBlockParams, x: Value, mode: str) -> Value:
    h = x
    for layer in params.layers:
        h = sep_conv_forward(layer, h, mode)
    return ad.add(x, h)


@dataclass
class TxnStreamParams:
    config: TxnStreamConfig
    entry_w: Value
    entry_b: Value
    blocks: list[TxnBlockParams] = field(default_factory=list)

    @classmethod
    def init(cls, config: TxnStreamConfig, gen: np.random.Generator) -> "TxnStreamParams":
        ew = gen.normal(scale=np.sqrt(2.0 / config.feature_dim),
                        size=(config.feature_dim, config.block_channels))
        blocks = [TxnBlockParams.init(config.block_channels, config.kernel_size, gen)
                  for _ in range(config.num_blocks)]
        return cls(config=config,
                   entry_w=Value(ew, requires_grad=True),
                   entry_b=Value(np.zeros(config.block_channels), requires_grad=True),
                   blocks=blocks)

    def parameters(self) -> list[Value]:
        return [self.entry_w, self.entry_b] + [p for b in self.blocks for p in b.parameters()]

    def bn_states(self) -> list[BnState]:
        return [layer.bn_state for b in self.blocks for layer in b.layers]


def txn_stream_forward(params: TxnStreamParams, x: Value, mode: str) -> Value:
    """Reduce sequences to stream vectors: [T x D] -> [C], [B x T x D] -> [B x C]."""
    cfg = params.config
    if x.data.ndim not in (2, 3):
        raise ShapeError("txn stream expects [T x D] or [B x T x D] sequences")
    if x.data.shape[-1] != cfg.feature_dim:
        raise ShapeError(
            f"sequence dim {x.data.shape[-1]} does not match stream dim {cfg.feature_dim}")
    if x.data.shape[-2] < 1:
        raise DataError("txn stream needs at least one frame")
    h = ad.zero_pad_time(x, cfg.pad_len)
    h = ad.adaptive_max_pool1d(h, cfg.num_segments)
    h = ad.pointwise_conv1d(h, params.entry_w, params.entry_b)
    for block in params.blocks:
        h = txn_block_forward(block, h, mode)
    return ad.global_max_pool_time(h)


@dataclass
class TxnParams:
    """Per-modality convolution streams plus an affine classifier."""

    streams: list[TxnStreamParams]
    classifier_w: Value
    classifier_b: Value
    num_classes: int

    @classmethod
    def init(cls, stream_configs: list[TxnStreamConfig], num_classes: int,
             gen: np.random.Generator) -> "TxnParams":
        if not stream_configs:
            raise ConfigError("at least one modality stream is required")
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        names = [c.modality for c in stream_configs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate modality stream in {names}")
        streams = [TxnStreamParams.init(c, gen) for c in stream_configs]
        rep_dim = sum(s.config.block_channels for s in streams)
        # zero-initialized classifier: first-step logits are exactly the bias
        return cls(streams=streams,
                   classifier_w=Value(np.zeros((rep_dim, num_classes)), requires_grad=True),
                   classifier_b=Value(np.zeros(num_classes), requires_grad=True),
                   num_classes=num_classes)

    def parameters(self) -> list[tuple[str, Value]]:
        named: list[tuple[str, Value]] = []
        for s in self.streams:
            base = f"stream.{s.config.modality}"
            named += [(f"{base}.entry_w", s.entry_w), (f"{base}.entry_b", s.entry_b)]
            for bi, block in enumerate(s.blocks):
                for li, layer in enumerate(block.layers):
                    lbase = f"{base}.block{bi}.layer{li}"
                    named += [(f"{lbase}.depthwise", layer.depthwise),
                              (f"{lbase}.pointwise_w", layer.pointwise_w),
                              (f"{lbase}.pointwise_b", layer.pointwise_b),
                              (f"{lbase}.bn_gamma", layer.bn_gamma),
                              (f"{lbase}.bn_beta", layer.bn_beta)]
        named += [("classifier.w", self.classifier_w), ("classifier.b", self.classifier_b)]
        return named

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state (batch-norm running statistics), by name."""
        named: list[tuple[str, np.ndarray]] = []
        for s in self.streams:
            for bi, block in enumerate(s.blocks):
                for li, layer in enumerate(block.layers):
                    base = f"stream.{s.config.modality}.block{bi}.layer{li}.bn"
                    named += [(f"{base}.mean", layer.bn_state.mean),
                              (f"{base}.var", layer.bn_state.var)]
        return named


def txn_forward(params: TxnParams, sequences: dict[str, Value], mode: str = "train") -> Value:
    """Logits [K] for one video given its per-modality sequences [T x D]."""
    reps = []
    for s in params.streams:
        name = s.config.modality
        if name not in sequences:
            raise ShapeError(f"missing sequence for modality {name!r}")
        reps.append(txn_stream_forward(s, sequences[name], mode))
    return ad.affine(ad.concat(reps, axis=0), params.classifier_w, params.classifier_b)


def txn_forward_batch(params: TxnParams, batch: list[dict[str, Value]],
                      mode: str = "train") -> Value:
    """Logits [B x K] for a batch, with batch-level normalization statistics.

    Sequences are padded per sample, then each stream runs once over the
    stacked batch so train-mode batch norm sees every video at once.
    """
    reps = []
    for s in params.streams:
        name = s.config.modality
        padded = []
        for sequences in batch:
            if name not in sequences:
                raise ShapeError(f"missing sequence for modality {name!r}")
            padded.append(ad.zero_pad_time(sequences[name], s.config.pad_len))
        reps.append(txn_stream_forward(s, ad.stack(padded), mode))
    return ad.affine(ad.concat(reps, axis=1), params.classifier_w, params.classifier_b)
