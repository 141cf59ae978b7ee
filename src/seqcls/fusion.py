"""Score tables, late fusion, top-k accuracy, and the mean-pool baseline.

A score table is a list of video ids and one probability matrix [N x K],
checked once when it is built.  Late fusion combines the tables of several
models with convex weights; it is written in delta form,
``p0 + sum_i w_i * (p_i - p0)``, which equals the weighted average exactly
in real arithmetic and returns a table unchanged, bit for bit, when every
input table agrees.  Weights may sum to 1 within 1e-9, which can push a
row at the edge of the sum rule past it; the fused table refuses it.

The mean-pool baseline has the heads' model interface (``training.MODELS``);
it takes frame means in NumPy and scores a batch with one affine map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .data import array_extent, atomic_write, check_line_ids, modality_frames, read_text_lines
from .errors import ConfigError, DataError, FormatError

WEIGHT_SUM_TOL = 1e-9
PROB_SUM_TOL = 1e-6


class ScoreTable:
    """Per-video class probabilities: ``ids`` [N] and one float64 matrix ``probs`` [N x K].

    The constructor is the one way to build a table, and it checks: every
    row holds K finite scores in [0, 1] that sum to 1 within PROB_SUM_TOL,
    and no id repeats.  One vectorized gate covers the matrix; a table that
    fails it raises the DataError of its first offending video, whose index
    is the error's ``row``.
    """

    def __init__(self, num_classes: int, ids: list[str], probs):
        # in C order each row sum of the gate is the scan's, bit for bit
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if probs.ndim != 2 or len(probs) != len(ids) or not ids and probs.shape[1] != num_classes:
            raise DataError(f"{len(ids)} video ids but scores of shape {probs.shape}")
        self.num_classes, self.ids, self.probs = num_classes, list(ids), probs
        # NaN fails the range test, so finiteness needs no pass of its own
        if not (probs.shape[1] == num_classes and len(set(self.ids)) == len(self.ids)
                and np.all((probs >= 0.0) & (probs <= 1.0))
                and np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL)):
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        """Raise for the first video that breaks a rule, its rules checked in the order above."""
        seen = set()
        for i, (vid, row) in enumerate(zip(self.ids, self.probs)):
            if row.shape != (self.num_classes,):
                fault = f"video {vid!r}: expected {self.num_classes} scores, got {row.shape}"
            elif not np.all(np.isfinite(row)):
                fault = f"video {vid!r}: scores must be finite"
            elif row.min() < 0.0 or row.max() > 1.0:
                fault = f"video {vid!r}: scores must lie in [0, 1]"
            elif abs(float(row.sum()) - 1.0) > PROB_SUM_TOL:
                fault = f"video {vid!r}: scores sum to {row.sum():.9f}, not 1"
            elif vid in seen:
                fault = f"duplicate video id {vid!r}"
            else:
                seen.add(vid)
                continue
            raise DataError(fault, row=i)

    @property
    def rows(self) -> dict[str, np.ndarray]:
        """Each video's row of ``probs``, a view, keyed by id in table order."""
        return dict(zip(self.ids, self.probs))


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis of a logit vector [K] or matrix [N x K].

    Stable in the log domain; each row of a matrix gets the bytes the row
    alone would get.
    """
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def late_fuse(tables: list[ScoreTable], weights: list[float]) -> ScoreTable:
    """Convex combination of score tables, in the first table's id order.

    Weights must be non-negative, finite and sum to 1 within 1e-9.  All tables
    must cover the same video ids, in any order, with the same class count.
    """
    if not tables:
        raise ConfigError("late_fuse requires at least one table")
    if len(weights) != len(tables):
        raise ConfigError(f"{len(tables)} tables but {len(weights)} weights")
    if not all(0.0 <= w < np.inf for w in weights):
        raise ConfigError(f"weights must be non-negative and finite, got {weights}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights sum to {sum(weights)!r}, expected 1")
    first = tables[0]
    ids = set(first.ids)
    for t in tables[1:]:
        if t.num_classes != first.num_classes:
            raise DataError(
                f"class counts disagree: {first.num_classes} vs {t.num_classes}")
        if set(t.ids) != ids:
            missing = ids.symmetric_difference(t.ids)
            raise DataError(f"video ids disagree across tables, e.g. {sorted(missing)[:3]}")
    # delta form: exact no-op when all tables carry identical rows
    p0 = first.probs
    p = p0.copy()
    for t, w in zip(tables[1:], weights[1:]):
        q = t.probs
        if t.ids != first.ids:
            at = {vid: i for i, vid in enumerate(t.ids)}
            q = q[[at[vid] for vid in first.ids]]
        p += w * (q - p0)
    return ScoreTable(first.num_classes, first.ids, np.clip(p, 0.0, 1.0))


def top_k_accuracy(table: ScoreTable, labels: dict[str, int], k: int) -> float:
    """Fraction of videos whose label ranks in the k highest scores.

    Ties rank the lower class index first, so results cannot depend on
    hash order or sort instability.  One stable sort ranks every row.
    """
    if not 1 <= k <= table.num_classes:
        raise ConfigError(f"k must lie in [1, {table.num_classes}], got {k}")
    if not table.ids:
        raise DataError("empty score table")
    for vid in table.ids:
        if vid not in labels:
            raise DataError(f"video {vid!r} missing from labels")
        label = labels[vid]
        if not 0 <= label < table.num_classes:
            raise DataError(f"video {vid!r} label {label} outside [0, {table.num_classes})")
    y = np.array([labels[vid] for vid in table.ids])
    topk = np.argsort(-table.probs, axis=1, kind="stable")[:, :k]
    hits = int(np.count_nonzero(topk == y[:, None]))
    return hits / len(table.ids)


# ---------------------------------------------------------------------------
# score table text files
# ---------------------------------------------------------------------------


def write_scores(path, table: ScoreTable) -> None:
    """One line per video: id,score_0,...,score_{K-1} at 9 significant digits.

    An id that ``read_scores`` could not give back, one that holds a line
    break or starts with whitespace, raises DataError before path is opened.
    """
    check_line_ids(table.ids, "score table")
    # an empty table builds no row format, whatever class count its header claims
    line = "%s" + ",%.9g" * table.num_classes + "\n" if table.ids else ""
    rows = table.probs.tolist()
    with atomic_write(path) as fh:
        fh.write(f"#classes={table.num_classes}\n"
                 + "".join(line % (vid, *row) for vid, row in zip(table.ids, rows)))


def read_scores(path) -> ScoreTable:
    """Read a score table; each row's last K fields are its scores, the rest its id.

    Lines end at LF, CR LF or CR.  Errors come in file order: bytes
    that are not utf-8 first (at the offset of the first bad byte), then a
    header fault, then the first line that has too few fields, a non-numeric
    score, a bad distribution or a repeated id.  A bad row thus wins over a
    parse error on a later line.
    """
    lines = read_text_lines(path, "score table")
    header = lines.readline().strip()
    if not header.startswith("#classes="):
        raise FormatError(f"expected '#classes=K' header, got {header!r}")
    try:
        k = int(header.removeprefix("#classes="))
    except ValueError as exc:
        raise FormatError(f"bad class count in header {header!r}") from exc
    if k < 2:
        raise FormatError(f"class count must be >= 2, got {k}")
    ids: list[str] = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    try:
        for lineno, line in enumerate(lines, start=2):
            line = line.strip()
            if not line:
                continue
            vid, *scores = line.rsplit(",", k)
            if len(scores) != k:
                raise FormatError(f"line {lineno}: expected {k + 1} fields, got {len(scores) + 1}")
            try:
                rows.append(list(map(float, scores)))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric score") from exc
            ids.append(vid)
            linenos.append(lineno)
    except FormatError:
        _checked_table(k, ids, rows, linenos)  # a bad row before the fault wins
        raise
    return _checked_table(k, ids, rows, linenos)


def _checked_table(k: int, ids: list[str], rows: list[list[float]],
                   linenos: list[int]) -> ScoreTable:
    """One table of the parsed rows; a bad row raises FormatError naming its line."""
    try:
        return ScoreTable(k, ids, np.array(rows, dtype=np.float64).reshape(-1, k))
    except DataError as exc:
        raise FormatError(f"line {linenos[exc.row]}: {exc}") from exc


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

    @staticmethod
    def check_kwargs(kwargs: dict) -> None:
        """The baseline has no sizes to check."""

    @classmethod
    def from_kwargs(cls, modalities: list[tuple[str, int]], num_classes: int, kwargs: dict,
                    gen: np.random.Generator) -> "MeanPoolParams":
        rep_dim = sum(d for _, d in modalities)
        w = gen.normal(scale=np.sqrt(2.0 / rep_dim), size=(rep_dim, num_classes))
        return cls(modalities=[(m, d) for m, d in modalities],
                   classifier_w=Value(w, requires_grad=True),
                   classifier_b=Value(np.zeros(num_classes), requires_grad=True),
                   num_classes=num_classes)

    @staticmethod
    def sizes_from_arrays(modalities: list[tuple[str, int]], arrays: dict) -> dict:
        """The summed feature dims, the rows of the classifier in a checkpoint's arrays."""
        return {"summed dims": array_extent(arrays, "classifier.w", 0, 2)}

    def prepare(self, batch: list[dict[str, np.ndarray]]) -> list[np.ndarray]:
        """Each video's concatenated per-modality frame means [R].

        Each mean sums the 1/T-scaled frames in sorted order, so it is
        bit-identical under frame reordering.
        """
        means = [[np.sort(x * (1.0 / len(x)), axis=0).sum(axis=0)
                  for x in modality_frames(batch, name, dim)]
                 for name, dim in self.modalities]
        return [np.concatenate(video) for video in zip(*means)]

    def forward_batch(self, inputs: list[np.ndarray], mode: str) -> Value:
        """Logits [B x K] of prepared inputs; the baseline has no train-only behaviour, so mode is unused."""
        return mean_pool_forward(self, inputs)

    def parameters(self) -> list[tuple[str, Value]]:
        return [("classifier.w", self.classifier_w), ("classifier.b", self.classifier_b)]

    def checkpoint_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, v.data) for name, v in self.parameters()]


def mean_pool_forward(params: MeanPoolParams, inputs: list[np.ndarray]) -> Value:
    """Logits [B x K] from each video's prepared frame means [R], graph constants."""
    return ad.pointwise_conv1d(Value(np.stack(inputs)), params.classifier_w, params.classifier_b)
