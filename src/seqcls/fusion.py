"""Score tables, late fusion, top-k accuracy, and the mean-pool baseline.

A score table maps each video id to a probability vector over classes.
Late fusion combines the tables of several models with convex weights; it
is written in delta form, ``p0 + sum_i w_i * (p_i - p0)``, which equals
the weighted average exactly in real arithmetic and returns a table
unchanged, bit for bit, when every input table agrees.

The mean-pool baseline has the heads' model interface (``training.MODELS``);
it takes frame means in NumPy and scores a batch with one affine map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .data import modality_frames
from .errors import ConfigError, DataError, FormatError

WEIGHT_SUM_TOL = 1e-9
PROB_SUM_TOL = 1e-6


@dataclass
class ScoreTable:
    """Per-video class probabilities; every row sums to 1 within tolerance."""

    num_classes: int
    rows: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, video_id: str, probs) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (self.num_classes,):
            raise DataError(
                f"video {video_id!r}: expected {self.num_classes} scores, got {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise DataError(f"video {video_id!r}: scores must be finite")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise DataError(f"video {video_id!r}: scores must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise DataError(f"video {video_id!r}: scores sum to {probs.sum():.9f}, not 1")
        if video_id in self.rows:
            raise DataError(f"duplicate video id {video_id!r}")
        self.rows[video_id] = probs


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Probabilities from a logit vector, stable in the log domain."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def late_fuse(tables: list[ScoreTable], weights: list[float]) -> ScoreTable:
    """Convex combination of aligned score tables.

    Weights must be non-negative and sum to 1 within 1e-9.  All tables
    must cover the same video ids with the same class count.
    """
    if not tables:
        raise ConfigError("late_fuse requires at least one table")
    if len(weights) != len(tables):
        raise ConfigError(f"{len(tables)} tables but {len(weights)} weights")
    if any(w < 0.0 for w in weights):
        raise ConfigError(f"weights must be non-negative, got {weights}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights sum to {sum(weights)!r}, expected 1")
    first = tables[0]
    ids = set(first.rows)
    for t in tables[1:]:
        if t.num_classes != first.num_classes:
            raise DataError(
                f"class counts disagree: {first.num_classes} vs {t.num_classes}")
        if set(t.rows) != ids:
            missing = ids.symmetric_difference(t.rows)
            raise DataError(f"video ids disagree across tables, e.g. {sorted(missing)[:3]}")
    fused = ScoreTable(num_classes=first.num_classes)
    for vid in first.rows:
        # delta form: exact no-op when all tables carry identical rows
        p = first.rows[vid].copy()
        for t, w in zip(tables[1:], weights[1:]):
            p += w * (t.rows[vid] - first.rows[vid])
        fused.rows[vid] = np.clip(p, 0.0, 1.0)
    return fused


def top_k_accuracy(table: ScoreTable, labels: dict[str, int], k: int) -> float:
    """Fraction of videos whose label ranks in the k highest scores.

    Ties rank the lower class index first, so results cannot depend on
    hash order or sort instability.
    """
    if not 1 <= k <= table.num_classes:
        raise ConfigError(f"k must lie in [1, {table.num_classes}], got {k}")
    if not table.rows:
        raise DataError("empty score table")
    hits = 0
    for vid, probs in table.rows.items():
        if vid not in labels:
            raise DataError(f"video {vid!r} missing from labels")
        label = labels[vid]
        if not 0 <= label < table.num_classes:
            raise DataError(f"video {vid!r} label {label} outside [0, {table.num_classes})")
        topk = np.argsort(-probs, kind="stable")[:k]
        hits += int(label in topk)
    return hits / len(table.rows)


# ---------------------------------------------------------------------------
# score table text files
# ---------------------------------------------------------------------------


def write_scores(path, table: ScoreTable) -> None:
    """One line per video: id,score_0,...,score_{K-1} at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#classes={table.num_classes}\n")
        for vid, probs in table.rows.items():
            fh.write(vid + "," + ",".join(format(p, ".9g") for p in probs) + "\n")


def read_scores(path) -> ScoreTable:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#classes="):
            raise FormatError(f"expected '#classes=K' header, got {header!r}")
        try:
            k = int(header.removeprefix("#classes="))
        except ValueError as exc:
            raise FormatError(f"bad class count in header {header!r}") from exc
        if k < 2:
            raise FormatError(f"class count must be >= 2, got {k}")
        table = ScoreTable(num_classes=k)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != k + 1:
                raise FormatError(f"line {lineno}: expected {k + 1} fields, got {len(parts)}")
            try:
                probs = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric score") from exc
            try:
                table.add(parts[0], probs)
            except DataError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
    return table


# ---------------------------------------------------------------------------
# mean-pool baseline
# ---------------------------------------------------------------------------


@dataclass
class MeanPoolParams:
    """Frame-average baseline: per-modality mean, concat, affine classifier."""

    modalities: list[tuple[str, int]]
    classifier_w: Value
    classifier_b: Value
    num_classes: int

    # the baseline has no architecture knobs
    CONFIG_FIELDS = {}

    @classmethod
    def init(cls, modalities: list[tuple[str, int]], num_classes: int,
             gen: np.random.Generator) -> "MeanPoolParams":
        if not modalities:
            raise ConfigError("at least one modality is required")
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        rep_dim = sum(d for _, d in modalities)
        w = gen.normal(scale=np.sqrt(2.0 / rep_dim), size=(rep_dim, num_classes))
        return cls(modalities=list(modalities),
                   classifier_w=Value(w, requires_grad=True),
                   classifier_b=Value(np.zeros(num_classes), requires_grad=True),
                   num_classes=num_classes)

    @classmethod
    def from_kwargs(cls, modalities: list[tuple[str, int]], num_classes: int, kwargs: dict,
                    gen: np.random.Generator) -> "MeanPoolParams":
        return cls.init(modalities, num_classes, gen)

    def forward_batch(self, batch: list[dict[str, Value]], mode: str) -> Value:
        """Logits [B x K]; the baseline has no train-only behaviour, so mode is unused."""
        return mean_pool_forward(self, batch)

    def parameters(self) -> list[tuple[str, Value]]:
        return [("classifier.w", self.classifier_w), ("classifier.b", self.classifier_b)]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return []


def mean_pool_forward(params: MeanPoolParams, batch: list[dict[str, Value]]) -> Value:
    """Logits [B x K] from the concatenated per-modality frame means of each video.

    The sequences are graph constants, so the means are NumPy; each sums the
    1/T-scaled frames in sorted order, bit-identical under frame reordering.
    """
    means = [np.stack([np.sort(x * (1.0 / len(x)), axis=0).sum(axis=0)
                       for x in modality_frames(batch, name, dim)])
             for name, dim in params.modalities]
    return ad.affine(Value(np.concatenate(means, axis=1)), params.classifier_w,
                     params.classifier_b)
