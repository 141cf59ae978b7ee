"""Tests for the finite-difference case suite and its redraw rules."""

from __future__ import annotations

import pytest

from seqcls import autodiff as ad
from seqcls.gradcheck import CASES, case_names, run_case, run_cases

# txn_block seeds whose first draw fails at the default step: the step in a
# pointwise weight crosses a relu kink behind batch norm (7, 61, 78, 132,
# 200, 266) or meets curvature that central differences at 1e-3 cannot
# resolve (118, 139, 186, 258, 259)
STEP_UNFIT_SEEDS = (7, 61, 78, 118, 132, 139, 186, 200, 258, 259, 266)


@pytest.mark.parametrize("seed", STEP_UNFIT_SEEDS)
def test_txn_block_redraws_samples_the_step_cannot_check(seed):
    first = ad.fd_check(*CASES["txn_block"](ad.rng(seed, 0)))
    assert not first.passed and first.step_unfit
    result = run_case("txn_block", seed)
    assert result.report.passed, result.line()
    assert result.attempts >= 2


def test_default_sweep_is_26_cases_by_5_seeds():
    names = case_names()
    assert len(names) == 26
    assert "stack" in names and "stack_rows" not in names
    results = run_cases(names, seeds=[0, 1, 2, 3, 4])
    assert len(results) == 130
    assert all(r.report.passed and not r.report.step_unfit for r in results)


def test_batched_attention_cases_use_rank3_shapes():
    for name in ("row_dot", "weighted_row_sum", "softmax_sharp", "l2_normalize"):
        _, params = CASES[name](ad.rng(0, 0))
        assert max(v.ndim for _, v in params) == 3, name
