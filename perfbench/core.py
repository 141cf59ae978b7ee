"""Measurement helpers shared by every workload.

Nothing here imports seqcls or NumPy, so the benchmark's own logic can be
tested without the program under test.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that the value is mostly one or two outliers.
TAIL_MIN_BEYOND = 10
# Candidate tail percentiles, in per-mille, highest first.
TAIL_CANDIDATES_PERMILLE = (999, 990, 950, 900, 750)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples) -> tuple[float, float, int] | None:
    """(percentile, value, n) for the highest candidate percentile that has
    at least TAIL_MIN_BEYOND samples beyond it, or None if none qualifies.

    The value is the nearest-rank percentile: the sample at rank
    ceil(p * n / 100) of the sorted samples.
    """
    values = sorted(samples)
    n = len(values)
    for permille in TAIL_CANDIDATES_PERMILLE:
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return permille / 10.0, float(values[rank - 1]), n
    return None


class CheckFailed(Exception):
    """An operation ran but its output did not pass the benchmark's check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Ledger:
    """Counts attempted and failed operations without stopping the run.

    An operation is one train run, eval pass, fuse or gradcheck case-run.
    It fails if it raises or if one of its output checks fails.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, label: str, fn, *args):
        """Call fn(*args) as one operation; its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def tally(self, label: str, attempted: int, failed: int, detail: str = "") -> None:
        """Record a batch of operations that ran inside one call."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{label}: {failed}/{attempted} failed {detail}".rstrip())

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class _TimedLines(io.TextIOBase):
    """A stdout stand-in that timestamps every completed line."""

    def __init__(self):
        super().__init__()
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((now, line))
        return len(text)


@dataclass
class CliRun:
    code: int
    started: float
    wall: float
    lines: list[tuple[float, str]]

    def text(self) -> list[str]:
        return [line for _, line in self.lines]


def run_cli(main, argv: list[str]) -> CliRun:
    """Call a CLI entry point in-process, timing it and capturing stdout."""
    out = _TimedLines()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    wall = time.perf_counter() - started
    return CliRun(code=code, started=started, wall=wall, lines=out.lines)


def run_cli_ok(main, argv: list[str]) -> CliRun:
    run = run_cli(main, argv)
    require(run.code == 0, f"`seqcls {argv[0]}` exited with code {run.code}")
    return run
