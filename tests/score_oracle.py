"""The score-table rules checked one video at a time: the oracle of ``ScoreTable``.

It never calls ``ScoreTable``, so tests can hold the constructor's one
vectorized gate and its first-error scan against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqcls.errors import DataError

PROB_SUM_TOL = 1e-6


@dataclass
class RefTable:
    """A score table as the oracle builds it: one row per id, in order."""

    num_classes: int
    rows: dict[str, np.ndarray]


def add_row(table: RefTable, vid: str, row) -> None:
    """Check one row against the rules and the ids already in table, then keep it.

    Raises the DataError of the first rule the row breaks: the wrong length,
    a non-finite score, a score outside [0, 1], a sum off 1 by more than
    PROB_SUM_TOL, or an id seen before.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (table.num_classes,):
        raise DataError(f"video {vid!r}: expected {table.num_classes} scores, got {row.shape}")
    if not np.all(np.isfinite(row)):
        raise DataError(f"video {vid!r}: scores must be finite")
    if row.min() < 0.0 or row.max() > 1.0:
        raise DataError(f"video {vid!r}: scores must lie in [0, 1]")
    if abs(float(row.sum()) - 1.0) > PROB_SUM_TOL:
        raise DataError(f"video {vid!r}: scores sum to {row.sum():.9f}, not 1")
    if vid in table.rows:
        raise DataError(f"duplicate video id {vid!r}")
    table.rows[vid] = row


def per_row_table(num_classes: int, ids, probs) -> RefTable:
    """A table of one ``add_row`` per id, in order."""
    table = RefTable(num_classes, {})
    for vid, row in zip(ids, probs):
        add_row(table, vid, row)
    return table
