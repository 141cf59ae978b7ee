"""The benchmark's own arithmetic: percentile rule and failure accounting."""

import json
from pathlib import Path

import pytest

import core
import layers
import run
from core import CheckFailed, Ledger, require, tail_percentile


@pytest.mark.parametrize("n, expected_pct, expected_rank", [
    (100, 90.0, 90),    # p95 would leave only 5 samples beyond it
    (1000, 99.0, 990),  # p99.9 would leave one
    (40, 75.0, 30),     # the smallest n with any tail
    (10000, 99.9, 9990),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected_pct, expected_rank):
    samples = list(range(n, 0, -1))  # order must not matter
    pct, value, count = tail_percentile(samples)
    assert (pct, count) == (expected_pct, n)
    assert value == expected_rank  # nearest rank on 1..n is the rank itself
    assert n - expected_rank >= core.TAIL_MIN_BEYOND


def test_tail_percentile_needs_enough_samples():
    assert tail_percentile(range(39)) is None
    assert tail_percentile([]) is None


def test_failed_check_counts_toward_failed_share_and_run_continues():
    ledger = Ledger()

    def good():
        return 1

    def bad_output():
        require(False, "scores differ")  # an injected failing check

    def crash():
        raise OSError("disk gone")

    results = [ledger.run("a", good), ledger.run("b", bad_output), ledger.run("c", crash),
               ledger.run("d", good)]
    assert results == [1, None, None, 1]
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.failed_share == 0.5
    assert any("scores differ" in f for f in ledger.failures)


def test_tally_adds_batches_of_operations():
    ledger = Ledger()
    ledger.tally("sweep", 130, 0)
    ledger.tally("sweep", 130, 13)
    assert ledger.failed_share == pytest.approx(13 / 260)
    assert ledger.failed_share > 0 and len(ledger.failures) == 1


def test_check_failed_is_an_exception_the_ledger_catches():
    with pytest.raises(CheckFailed):
        require(False, "x")


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
