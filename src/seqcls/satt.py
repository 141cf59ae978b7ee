"""Attention pooling head over frame-feature sequences.

One head scores every frame with a learned vector, turns the sharpened
scores into attention weights, takes the weighted sum of frames, then
shifts and rescales it with two learned scalars before unit-normalizing:

    weights = softmax(alpha * X w),   head(X) = (weights X * a + b) / ||.||_2

The scalar shift b spreads over every channel; normalization makes the
head's output scale-free so heads can be concatenated safely.  A modality
group runs several heads over the same sequence and unit-normalizes their
concatenation; the network concatenates all groups and applies an affine
classifier.

Everything runs as one batched path.  Per modality, the H heads' vectors
are stacked into w [H x D] and their scalars into a, b [H x 1]; a block of
B videos with T frames each, x [B x T x D], then takes a handful of ops:
scores [B x H x T], attention weights [B x H x T], pooled heads
[B x H x D], and the group representation [B x H*D].  Videos of a batch may
differ in length: ``satt_representations`` groups the videos whose
per-modality frame counts agree, runs each group as one block without any
padding or mask, and puts the rows back in input order.  The single-head
and single-video entry points are B = 1 (and H = 1) calls of the same path,
so the per-video numbers equal the batched ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .errors import ConfigError, ShapeError


@dataclass
class SattHeadParams:
    """One attention head: scoring vector w [D], scale a, shift b."""

    w: Value
    a: Value
    b: Value

    @classmethod
    def init(cls, feature_dim: int, gen: np.random.Generator) -> "SattHeadParams":
        w = gen.normal(scale=1.0 / np.sqrt(feature_dim), size=feature_dim)
        return cls(w=Value(w, requires_grad=True),
                   a=Value(1.0, requires_grad=True),
                   b=Value(0.0, requires_grad=True))


def _stack_heads(heads: list[SattHeadParams]) -> tuple[Value, Value, Value]:
    """The heads' vectors as w [H x D] and their scalars as a, b [H x 1]."""
    n = len(heads)
    return (ad.stack([h.w for h in heads]),
            ad.reshape(ad.stack([h.a for h in heads]), (n, 1)),
            ad.reshape(ad.stack([h.b for h in heads]), (n, 1)))


def _pool_heads(x: Value, w: Value, a: Value, b: Value, alpha: float) -> Value:
    """Unit head outputs [B x H x D] for a block of sequences x [B x T x D]."""
    weights = ad.softmax_sharp(ad.row_dot(x, w), alpha)
    pooled = ad.weighted_row_sum(weights, x)
    return ad.l2_normalize(ad.add(ad.mul(pooled, a), b))


def _group_block(x: Value, heads: tuple[Value, Value, Value], alpha: float) -> Value:
    """Unit group representations [B x H*D]: the heads concatenated, normalized."""
    out = _pool_heads(x, *heads, alpha)
    b, h, d = out.data.shape
    return ad.l2_normalize(ad.reshape(out, (b, h * d)))


def _check_sequence(x: Value, dim: int, what: str) -> None:
    if x.data.ndim != 2:
        raise ShapeError(f"{what} expects a rank-2 sequence [T x D]")
    if x.data.shape[1] != dim:
        raise ShapeError(f"sequence dim {x.data.shape[1]} does not match {what} dim {dim}")


def satt_head_forward(params: SattHeadParams, x: Value, alpha: float) -> Value:
    """Attention-pool one sequence x [T x D] to a unit vector [D]."""
    _check_sequence(x, params.w.data.shape[0], "satt head")
    t, d = x.data.shape
    out = _pool_heads(ad.reshape(x, (1, t, d)), *_stack_heads([params]), alpha)
    return ad.reshape(out, (d,))


@dataclass
class AttentionGroupConfig:
    """Head bank for one modality: how many heads, how sharp."""

    modality: str
    feature_dim: int
    num_heads: int = 4
    alpha: float = 1.0

    def __post_init__(self):
        if self.num_heads < 1:
            raise ConfigError(f"group {self.modality!r} needs at least one head")
        if self.feature_dim < 1:
            raise ConfigError(f"group {self.modality!r} feature_dim must be >= 1")
        if not self.alpha > 0.0:
            raise ConfigError(f"group {self.modality!r} alpha must be positive")


@dataclass
class AttentionGroupParams:
    config: AttentionGroupConfig
    heads: list[SattHeadParams] = field(default_factory=list)

    @classmethod
    def init(cls, config: AttentionGroupConfig, gen: np.random.Generator) -> "AttentionGroupParams":
        heads = [SattHeadParams.init(config.feature_dim, gen) for _ in range(config.num_heads)]
        return cls(config=config, heads=heads)

    @property
    def output_dim(self) -> int:
        return self.config.num_heads * self.config.feature_dim


@dataclass
class SattNetParams:
    """Per-modality attention groups plus an affine classifier."""

    groups: list[AttentionGroupParams]
    classifier_w: Value
    classifier_b: Value
    num_classes: int

    # checkpoint model_kwargs key -> the training config field it is taken
    # from; unannotated, so a class attribute rather than a dataclass field
    CONFIG_FIELDS = {"num_heads": "satt_heads", "alpha": "satt_alpha"}

    @classmethod
    def init(cls, group_configs: list[AttentionGroupConfig], num_classes: int,
             gen: np.random.Generator) -> "SattNetParams":
        if not group_configs:
            raise ConfigError("at least one modality group is required")
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        names = [c.modality for c in group_configs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate modality group in {names}")
        groups = [AttentionGroupParams.init(c, gen) for c in group_configs]
        rep_dim = sum(g.output_dim for g in groups)
        w = gen.normal(scale=np.sqrt(2.0 / rep_dim), size=(rep_dim, num_classes))
        return cls(groups=groups,
                   classifier_w=Value(w, requires_grad=True),
                   classifier_b=Value(np.zeros(num_classes), requires_grad=True),
                   num_classes=num_classes)

    @classmethod
    def from_kwargs(cls, modalities: list[tuple[str, int]], num_classes: int, kwargs: dict,
                    gen: np.random.Generator) -> "SattNetParams":
        return cls.init([AttentionGroupConfig(m, d, int(kwargs["num_heads"]), float(kwargs["alpha"]))
                         for m, d in modalities], num_classes, gen)

    def forward_batch(self, batch: list[dict[str, Value]], mode: str) -> Value:
        """Logits [B x K]; attention has no train-only behaviour, so mode is unused."""
        return satt_forward_batch(self, batch)

    def parameters(self) -> list[tuple[str, Value]]:
        named: list[tuple[str, Value]] = []
        for g in self.groups:
            for i, h in enumerate(g.heads):
                base = f"group.{g.config.modality}.head{i}"
                named += [(f"{base}.w", h.w), (f"{base}.a", h.a), (f"{base}.b", h.b)]
        named += [("classifier.w", self.classifier_w), ("classifier.b", self.classifier_b)]
        return named

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return []

    @property
    def modalities(self) -> list[tuple[str, int]]:
        return [(g.config.modality, g.config.feature_dim) for g in self.groups]


def _frame_counts(params: SattNetParams, sequences: dict[str, Value]) -> tuple[int, ...]:
    counts = []
    for g in params.groups:
        name = g.config.modality
        if name not in sequences:
            raise ShapeError(f"missing sequence for modality {name!r}")
        _check_sequence(sequences[name], g.config.feature_dim, f"group {name!r}")
        counts.append(sequences[name].data.shape[0])
    return tuple(counts)


def satt_representations(params: SattNetParams, batch: list[dict[str, Value]]) -> Value:
    """Concatenated group representations [B x R] of a batch, in input order.

    Videos whose per-modality frame counts agree form one block; each
    block runs every group once on its stacked sequences [Bg x T x D].
    """
    if not batch:
        raise ShapeError("satt needs at least one video")
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, sequences in enumerate(batch):
        blocks.setdefault(_frame_counts(params, sequences), []).append(i)
    heads = [_stack_heads(g.heads) for g in params.groups]
    reps = []
    for rows in blocks.values():
        groups = [_group_block(ad.stack([batch[i][g.config.modality] for i in rows]),
                               stacked, g.config.alpha)
                  for g, stacked in zip(params.groups, heads)]
        reps.append(ad.concat(groups, axis=1))
    if len(reps) == 1:
        return reps[0]
    order = [i for rows in blocks.values() for i in rows]
    return ad.take_rows(ad.concat(reps, axis=0), np.argsort(order))


def satt_forward_batch(params: SattNetParams, batch: list[dict[str, Value]]) -> Value:
    """Logits [B x K] for a batch of videos given per-modality sequences [T x D]."""
    return ad.affine(satt_representations(params, batch), params.classifier_w,
                     params.classifier_b)


def satt_net_forward(params: SattNetParams, sequences: dict[str, Value]) -> Value:
    """Logits [K] for one video given its per-modality sequences [T x D]."""
    return ad.reshape(satt_forward_batch(params, [sequences]), (params.num_classes,))
