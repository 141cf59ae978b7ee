"""Temporal separable-convolution head over frame-feature sequences.

Each modality stream fixes the clip length by tail zero-padding, coarsens
time with adaptive max pooling, projects channels to a working width, then
runs residual blocks of two separable convolution layers (depthwise
temporal conv, pointwise channel mix, batch norm, relu).  A global
temporal max pool reduces each stream to a vector; streams are
concatenated and classified with an affine map.

Every forward is batched: ``txn_stream_forward`` cuts or zero-pads each
video's frames to the clip length once, in NumPy, into one constant
[B x pad_len x D] batch (the frames are graph constants; no gradient flows
into them), and runs the stream over it once, so batch norm pools every
batch x segment position and each training step folds exactly one batch
statistic into the running averages.
``txn_forward`` is its B = 1 call.  One walker names the parameters and
batch-norm buffers, in checkpoint order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import BnState, Value
from .data import modality_frames
from .errors import ConfigError


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


def txn_stream_forward(params: TxnStreamParams, batch: list[dict[str, Value]],
                       mode: str) -> Value:
    """Stream vectors [B x C]; the frames are cut or zero-padded to pad_len in NumPy."""
    cfg = params.config
    frames = modality_frames(batch, cfg.modality, cfg.feature_dim)
    x = np.zeros((len(frames), cfg.pad_len, cfg.feature_dim))
    for row, f in zip(x, frames):
        row[:len(f)] = f[:cfg.pad_len]
    h = ad.adaptive_max_pool1d(Value(x), cfg.num_segments)
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

    # checkpoint model_kwargs key -> the training config field it is taken from
    CONFIG_FIELDS = {
        "pad_len": "txn_pad_len", "num_segments": "txn_segments", "kernel_size": "txn_kernel",
        "block_channels": "txn_channels", "num_blocks": "txn_blocks"}

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

    @classmethod
    def from_kwargs(cls, modalities: list[tuple[str, int]], num_classes: int, kwargs: dict,
                    gen: np.random.Generator) -> "TxnParams":
        shape = {key: int(kwargs[key]) for key in cls.CONFIG_FIELDS}
        return cls.init([TxnStreamConfig(modality=m, feature_dim=d, **shape)
                         for m, d in modalities], num_classes, gen)

    def forward_batch(self, batch: list[dict[str, Value]], mode: str) -> Value:
        return txn_forward_batch(self, batch, mode)

    def parameters(self) -> list[tuple[str, Value]]:
        return named_parameters(self)

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable state (batch-norm running statistics), by name."""
        return [(f"{name}.{stat}", getattr(state, stat)) for name, state in _named_leaves(self)
                if isinstance(state, BnState) for stat in ("mean", "var")]

    @property
    def modalities(self) -> list[tuple[str, int]]:
        return [(s.config.modality, s.config.feature_dim) for s in self.streams]


_LAYER_PARAMS = ("depthwise", "pointwise_w", "pointwise_b", "bn_gamma", "bn_beta")


def _named_leaves(node, prefix: str = "") -> list[tuple[str, Value | BnState]]:
    """Parameters and batch-norm states under a txn net, stream, block or layer, by name."""
    if isinstance(node, SepConvParams):
        return ([(prefix + f, getattr(node, f)) for f in _LAYER_PARAMS]
                + [(prefix + "bn", node.bn_state)])
    if isinstance(node, TxnBlockParams):
        return [leaf for i, layer in enumerate(node.layers)
                for leaf in _named_leaves(layer, f"{prefix}layer{i}.")]
    if isinstance(node, TxnStreamParams):
        return ([(prefix + "entry_w", node.entry_w), (prefix + "entry_b", node.entry_b)]
                + [leaf for i, block in enumerate(node.blocks)
                   for leaf in _named_leaves(block, f"{prefix}block{i}.")])
    return ([leaf for s in node.streams for leaf in _named_leaves(s, f"stream.{s.config.modality}.")]
            + [("classifier.w", node.classifier_w), ("classifier.b", node.classifier_b)])


def named_parameters(node) -> list[tuple[str, Value]]:
    """The trainable Values under a txn net, stream, block or layer, by name."""
    return [(name, v) for name, v in _named_leaves(node) if isinstance(v, Value)]


def txn_forward(params: TxnParams, sequences: dict[str, Value], mode: str = "train") -> Value:
    """Logits [K] for one video: a batch of one through ``txn_forward_batch``."""
    return ad.reshape(txn_forward_batch(params, [sequences], mode), (params.num_classes,))


def txn_forward_batch(params: TxnParams, batch: list[dict[str, Value]],
                      mode: str = "train") -> Value:
    """Logits [B x K] for a batch, with batch-level normalization statistics.

    Each stream runs once over the padded batch, so train-mode batch norm
    sees every video at once.
    """
    reps = [txn_stream_forward(s, batch, mode) for s in params.streams]
    return ad.affine(ad.concat(reps, axis=1), params.classifier_w, params.classifier_b)
