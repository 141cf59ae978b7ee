"""Temporal separable-convolution head over frame-feature sequences.

Each modality stream fixes the clip length by tail zero-padding, coarsens
time with adaptive max pooling, projects channels to a working width, then
runs residual blocks of two separable convolution layers (depthwise
temporal conv, pointwise channel mix, batch norm, relu).  A global
temporal max pool reduces each stream to a vector; streams are
concatenated and classified with an affine map.

``TxnParams.prepare`` does every parameter-free step, once per video and
stream: it checks the frames (``modality_frames``), cuts or zero-pads them
to the clip length and max-pools the segments with ``ad.segment_max`` (no
gradient flows into the frames, so the pooling is no graph node).  When
the frames need neither, the clip is a view of them.  Every forward is
batched over prepared inputs: ``txn_stream_forward`` only stacks its
clips into one constant leaf, ``Value(np.stack(clips))``, and runs the
stream over it once, so batch norm pools every batch x segment position
and each training step folds exactly one batch statistic into the running
averages.  ``txn_forward`` is its B = 1 call.  One walker names the
parameters and batch-norm statistics, in checkpoint order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import BnState, Value
from .data import array_extent, modality_frames
from .errors import ConfigError


# the longest clip a stream pads to: pad_len shapes no stored array, so a
# checkpoint's arrays cannot bound it, and prepare pads a clip to [pad_len x D]
MAX_PAD_LEN = 2 ** 16
# the widest block, longest kernel and deepest stream a config may ask for: a
# train config's sizes have no arrays behind them, and each layer allocates a
# [C x C] pointwise map and [K x C] kernels; a longer kernel's outer taps read
# only zero padding at every clip length
MAX_BLOCK_CHANNELS = 2 ** 12
MAX_KERNEL_SIZE = 2 * MAX_PAD_LEN - 1
MAX_NUM_BLOCKS = 2 ** 8


@dataclass
class TxnStreamConfig:
    """Shape of one modality stream; ``TrainConfig`` has the defaults, ``build_model`` the checks."""

    modality: str
    feature_dim: int
    pad_len: int
    num_segments: int
    kernel_size: int
    block_channels: int
    num_blocks: int


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


def _clip(cfg: TxnStreamConfig, frames: np.ndarray) -> np.ndarray:
    """Checked frames [T x D] cut or zero-padded to pad_len, max-pooled to [num_segments x D]."""
    x = frames[:cfg.pad_len]
    if len(x) < cfg.pad_len:
        x = np.concatenate([x, np.zeros((cfg.pad_len - len(x), cfg.feature_dim))])
    return ad.segment_max(x, cfg.num_segments)[0]


def txn_stream_forward(params: TxnStreamParams, clips: list[np.ndarray], mode: str) -> Value:
    """Stream vectors [B x C] of each video's prepared clip [num_segments x D]."""
    h = ad.pointwise_conv1d(Value(np.stack(clips)), params.entry_w, params.entry_b)
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
        streams = [TxnStreamParams.init(c, gen) for c in stream_configs]
        rep_dim = sum(s.config.block_channels for s in streams)
        # zero-initialized classifier: first-step logits are exactly the bias
        return cls(streams=streams,
                   classifier_w=Value(np.zeros((rep_dim, num_classes)), requires_grad=True),
                   classifier_b=Value(np.zeros(num_classes), requires_grad=True),
                   num_classes=num_classes)

    @classmethod
    def check_kwargs(cls, kwargs: dict) -> None:
        """Raise ConfigError unless the sizes make valid streams."""
        pad_len, num_segments, kernel_size, block_channels, num_blocks = (
            kwargs[key] for key in cls.CONFIG_FIELDS)
        if not 1 <= pad_len <= MAX_PAD_LEN:
            raise ConfigError(f"txn pad_len must lie in [1, {MAX_PAD_LEN}], got {pad_len}")
        if not 2 <= num_segments <= pad_len:
            raise ConfigError(f"txn num_segments must lie in [2, pad_len], got {num_segments}")
        if kernel_size % 2 == 0 or not 1 <= kernel_size <= MAX_KERNEL_SIZE:
            raise ConfigError(f"txn kernel_size must be odd and lie in [1, {MAX_KERNEL_SIZE}], "
                              f"got {kernel_size}")
        if not 1 <= block_channels <= MAX_BLOCK_CHANNELS:
            raise ConfigError(f"txn block_channels must lie in [1, {MAX_BLOCK_CHANNELS}], "
                              f"got {block_channels}")
        if not 1 <= num_blocks <= MAX_NUM_BLOCKS:
            raise ConfigError(f"txn num_blocks must lie in [1, {MAX_NUM_BLOCKS}], got {num_blocks}")

    @classmethod
    def from_kwargs(cls, modalities: list[tuple[str, int]], num_classes: int, kwargs: dict,
                    gen: np.random.Generator) -> "TxnParams":
        return cls.init([TxnStreamConfig(modality=m, feature_dim=d, **kwargs)
                         for m, d in modalities], num_classes, gen)

    @staticmethod
    def sizes_from_arrays(modalities: list[tuple[str, int]], arrays: dict) -> dict:
        """The kernel length, block width, block count and feature dims a checkpoint's arrays give.

        The first three are read off the first stream, each modality's dim
        off its stream's entry map; None where an array is missing or not
        of rank 2.
        """
        prefix = f"stream.{modalities[0][0]}."
        blocks = 0
        while f"{prefix}block{blocks}.layer0.depthwise" in arrays:
            blocks += 1
        return {"kernel_size": array_extent(arrays, prefix + "block0.layer0.depthwise", 0, 2),
                "block_channels": array_extent(arrays, prefix + "entry_w", 1, 2),
                "num_blocks": blocks,
                **{f"dim of {m!r}": array_extent(arrays, f"stream.{m}.entry_w", 0, 2)
                   for m, _ in modalities}}

    def prepare(self, batch: list[dict[str, np.ndarray]]) -> list[tuple[np.ndarray, ...]]:
        """Each video's pooled clip [num_segments x D], one array per stream."""
        return list(zip(*[[_clip(s.config, f) for f in
                           modality_frames(batch, s.config.modality, s.config.feature_dim)]
                          for s in self.streams]))

    def forward_batch(self, inputs: list, mode: str) -> Value:
        return txn_forward_batch(self, inputs, mode)

    def parameters(self) -> list[tuple[str, Value]]:
        return named_parameters(self)

    def checkpoint_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameter values, then batch-norm running statistics, by name: the checkpoint layout."""
        return [(name, v.data) for name, v in self.parameters()] + [
            (f"{name}.{stat}", getattr(state, stat)) for name, state in _named_leaves(self)
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
    inputs = params.prepare([{m: v.data for m, v in sequences.items()}])
    return ad.reshape(txn_forward_batch(params, inputs, mode), (params.num_classes,))


def txn_forward_batch(params: TxnParams, inputs: list, mode: str = "train") -> Value:
    """Logits [B x K] for a batch's prepared inputs, with batch-level normalization statistics.

    Each stream runs once over the batch's stacked clips, so train-mode
    batch norm sees every video at once.
    """
    reps = [txn_stream_forward(s, [video[k] for video in inputs], mode)
            for k, s in enumerate(params.streams)]
    return ad.pointwise_conv1d(ad.concat(reps, axis=1), params.classifier_w, params.classifier_b)
