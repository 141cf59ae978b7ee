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

Everything runs as one batched path.  A modality group is its name, its
sharpness alpha and its H heads as three trainable leaves, w [H x D] and
a, b [H x 1], whose shapes alone record H and D; ``from_kwargs`` builds
the groups and ``SattNetParams.init`` draws the classifier over them.  A
checkpoint stores head i's three arrays as views of their row i.  A block
of B videos with T frames each, x [B x T x D], takes a handful of ops:
scores and attention weights [B x H x T], pooled heads [B x H x D], and
the group representation [B x H*D].  Videos of a batch may differ in
length: ``satt_representations`` groups the videos whose
per-modality frame counts agree, runs each group as one block without any
padding or mask, and puts the rows back in input order.  The single-video
entry point is a B = 1 call of the same path, so its numbers equal the
batched ones bit for bit; the single-head entry point is a B = H = 1 call,
whose one-row products may round differently from a group's.  The network's
frames are graph constants, checked by ``modality_frames`` in
``SattNetParams.prepare``, and each block's frames are one leaf; only
``satt_head_forward`` keeps its sequence in the graph, so a gradient check
can differentiate it.

Attention pooling is a weighted sum over frames, so a head must not depend
on their order, and here it does not, bit for bit: every sequence enters in
one canonical frame order (``_frame_order``, a sort by the frames' bit
patterns).  ``prepare`` computes each sequence's order once, in bulk for
the sequences of one modality and length, and a block gathers its frames
in that order; ``satt_head_forward`` sorts through ``take_rows``.  Any
permutation of a video's frames, per modality, thus puts the same bytes
into every op, and logits and parameter gradients come out bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .data import array_extent, modality_frames
from .errors import ConfigError, ShapeError

# the most heads a group may have: a train config's head count has no arrays
# behind it, and a group allocates a [H x D] bank and [B x H x T] scores
MAX_NUM_HEADS = 2 ** 10
# the most frame values one bulk order computation stacks; the stack and its
# byte keys hold twice that many float64s, so preparing a split stays small
ORDER_CHUNK = 2 ** 16


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


def _frame_order(x: np.ndarray) -> np.ndarray:
    """Each sequence's canonical frame order [B x T] for frames x [B x T x D].

    Frames sort by their float64 bit patterns, not by value: a value sort
    ties -0.0 with +0.0, and tied frames that differ in bytes would keep
    their input order.  Bit-equal frames are interchangeable.

    The order is the one ``np.lexsort`` of the channels gives: frames
    compare by the bit pattern of channel D-1 read as an unsigned integer,
    ties by channel D-2, and so on, and equal frames keep their input
    order.  One stable argsort of a byte key per frame gives the same
    order, because keys compare as unsigned bytes, first byte first:
    putting the channels in reverse order lets channel D-1 decide first,
    and storing each channel big-endian (most significant byte first)
    makes comparing its 8 bytes in turn the same as comparing its integer.
    """
    d = x.shape[-1]
    keys = x.view(np.uint64)[..., ::-1].astype(">u8").view(f"V{8 * d}")[..., 0]
    return np.argsort(keys, axis=-1, kind="stable")


def _frame_orders(xs: list[np.ndarray]) -> list[np.ndarray]:
    """Each sequence's canonical frame order [T], for sequences [T x D] of one D.

    The sequences of one length are sorted together, by ``_frame_order``
    calls on stacks of at most ``ORDER_CHUNK`` frame values (one sequence
    at least); a sequence's order depends on its own frames only, so
    neither the grouping nor the chunking changes an index.
    """
    by_length: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        by_length.setdefault(len(x), []).append(i)
    orders = [None] * len(xs)
    for rows in by_length.values():
        n = max(1, ORDER_CHUNK // xs[rows[0]].size)
        for start in range(0, len(rows), n):
            part = rows[start:start + n]
            for i, order in zip(part, _frame_order(np.stack([xs[i] for i in part]))):
                orders[i] = order
    return orders


def _pool_heads(x: Value, w: Value, a: Value, b: Value, alpha: float) -> Value:
    """Unit head outputs [B x H x D] for a block of sequences x [B x T x D]."""
    weights = ad.softmax_sharp(ad.row_dot(x, w), alpha)
    pooled = ad.weighted_row_sum(weights, x)
    return ad.l2_normalize(ad.add(ad.mul(pooled, a), b))


def _group_block(x: Value, group: AttentionGroupParams) -> Value:
    """Unit group representations [B x H*D]: the heads concatenated, normalized."""
    out = _pool_heads(x, group.w, group.a, group.b, group.alpha)
    b, h, d = out.data.shape
    return ad.l2_normalize(ad.reshape(out, (b, h * d)))


def satt_head_forward(params: SattHeadParams, x: Value, alpha: float) -> Value:
    """Attention-pool one sequence x [T x D] to a unit vector [D]."""
    d = params.w.data.shape[0]
    if x.data.ndim != 2 or x.data.shape[1] != d:
        raise ShapeError(f"satt head expects a sequence [T x {d}], got {x.data.shape}")
    x = ad.take_rows(x, _frame_order(x.data[None])[0])
    out = _pool_heads(ad.reshape(x, (1,) + x.data.shape), ad.reshape(params.w, (1, d)),
                      ad.reshape(params.a, (1, 1)), ad.reshape(params.b, (1, 1)), alpha)
    return ad.reshape(out, (d,))


@dataclass
class AttentionGroupParams:
    """One modality's H heads as one bank: vectors w [H x D] (H and D are its shape),
    scales a and shifts b [H x 1], and their sharpness alpha."""

    modality: str
    alpha: float
    w: Value
    a: Value
    b: Value

    @classmethod
    def init(cls, modality: str, feature_dim: int, num_heads: int, alpha: float,
             gen: np.random.Generator) -> "AttentionGroupParams":
        h, d = num_heads, feature_dim
        w = gen.normal(scale=1.0 / np.sqrt(d), size=(h, d))  # = H SattHeadParams draws, bitwise
        return cls(modality, alpha, *(Value(v, requires_grad=True)
                                      for v in (w, np.ones((h, 1)), np.zeros((h, 1)))))


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
    def init(cls, groups: list[AttentionGroupParams], num_classes: int,
             gen: np.random.Generator) -> "SattNetParams":
        """The net over built groups, with a freshly drawn classifier."""
        rep_dim = sum(g.w.data.size for g in groups)
        w = gen.normal(scale=np.sqrt(2.0 / rep_dim), size=(rep_dim, num_classes))
        return cls(groups=groups,
                   classifier_w=Value(w, requires_grad=True),
                   classifier_b=Value(np.zeros(num_classes), requires_grad=True),
                   num_classes=num_classes)

    @staticmethod
    def check_kwargs(kwargs: dict) -> None:
        """Raise ConfigError unless the head count and sharpness make valid groups."""
        num_heads, alpha = kwargs["num_heads"], kwargs["alpha"]
        if not 1 <= num_heads <= MAX_NUM_HEADS:
            raise ConfigError(f"satt num_heads must lie in [1, {MAX_NUM_HEADS}], got {num_heads}")
        if not 0.0 < alpha < np.inf:
            raise ConfigError(f"satt alpha must lie in (0, inf), got {alpha}")

    @classmethod
    def from_kwargs(cls, modalities: list[tuple[str, int]], num_classes: int, kwargs: dict,
                    gen: np.random.Generator) -> "SattNetParams":
        return cls.init([AttentionGroupParams.init(m, d, kwargs["num_heads"], kwargs["alpha"], gen)
                         for m, d in modalities], num_classes, gen)

    @staticmethod
    def sizes_from_arrays(modalities: list[tuple[str, int]], arrays: dict) -> dict:
        """The head count and feature dims a checkpoint's arrays give.

        The head count is the first group's number of head vectors, each
        modality's dim the length of its group's first head vector.
        """
        n = 0
        while f"group.{modalities[0][0]}.head{n}.w" in arrays:
            n += 1
        return {"num_heads": n, **{f"dim of {m!r}": array_extent(arrays, f"group.{m}.head0.w", 0, 1)
                                   for m, _ in modalities}}

    def prepare(self, batch: list[dict[str, np.ndarray]]) -> list[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Each video's inputs: per group, its checked frames [T x D] and their canonical order [T]."""
        frames = [modality_frames(batch, m, d) for m, d in self.modalities]
        return list(zip(*[zip(xs, _frame_orders(xs)) for xs in frames]))

    def forward_batch(self, inputs: list, mode: str) -> Value:
        """Logits [B x K] of prepared inputs; attention has no train-only behaviour, so mode is unused."""
        return satt_forward_batch(self, inputs)

    def parameters(self) -> list[tuple[str, Value]]:
        return ([(f"group.{g.modality}.{f}", getattr(g, f))
                 for g in self.groups for f in ("w", "a", "b")]
                + [("classifier.w", self.classifier_w), ("classifier.b", self.classifier_b)])

    def checkpoint_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Head i's w, a and b as views of row i of its group's leaves, then the classifier."""
        return [(f"group.{g.modality}.head{i}.{f}", view)
                for g in self.groups for i in range(len(g.w.data))
                for f, view in (("w", g.w.data[i]), ("a", g.a.data[i, 0, ...]),
                                ("b", g.b.data[i, 0, ...]))] + [
            ("classifier.w", self.classifier_w.data), ("classifier.b", self.classifier_b.data)]

    @property
    def modalities(self) -> list[tuple[str, int]]:
        return [(g.modality, g.w.data.shape[1]) for g in self.groups]


def satt_representations(params: SattNetParams, inputs: list) -> Value:
    """Concatenated group representations [B x R] of prepared inputs, in input order.

    Videos whose per-modality frame counts agree form one block; each
    block runs every group once on its stacked frames [Bg x T x D],
    gathered in canonical order, one constant leaf per group.
    """
    blocks: dict[tuple[int, ...], list[int]] = {}
    lengths = [[len(video[k][1]) for video in inputs] for k in range(len(params.groups))]
    for i, counts in enumerate(zip(*lengths)):
        blocks.setdefault(counts, []).append(i)
    reps = []
    for rows in blocks.values():
        groups = []
        for k, g in enumerate(params.groups):
            x = np.array([x.take(order, axis=0) for x, order in (inputs[i][k] for i in rows)])
            groups.append(_group_block(Value(x), g))
        reps.append(ad.concat(groups, axis=1))
    if len(reps) == 1:
        return reps[0]
    order = [i for rows in blocks.values() for i in rows]
    return ad.take_rows(ad.concat(reps, axis=0), np.argsort(order))


def satt_forward_batch(params: SattNetParams, inputs: list) -> Value:
    """Logits [B x K] for a batch of videos' prepared inputs."""
    rows = satt_representations(params, inputs)
    return ad.pointwise_conv1d(rows, params.classifier_w, params.classifier_b)


def satt_net_forward(params: SattNetParams, sequences: dict[str, Value]) -> Value:
    """Logits [K] for one video given its per-modality sequences [T x D]."""
    inputs = params.prepare([{m: v.data for m, v in sequences.items()}])
    return ad.reshape(satt_forward_batch(params, inputs), (params.num_classes,))
