"""Tests for the finite-difference case suite and its one redraw rule."""

from __future__ import annotations

import ast
import inspect

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


def test_default_sweep_is_25_cases_by_5_seeds():
    names = case_names()
    assert len(names) == 25
    assert "take_rows" in names and "stack" not in names and "transpose" not in names
    results = run_cases(names, seeds=[0, 1, 2, 3, 4])
    assert len(results) == 125
    assert all(r.report.passed and not r.report.step_unfit for r in results)


# cases that check a model's forward pass rather than one autodiff function
MODEL_CASES = {"satt_head", "satt_net", "txn_block", "txn_net"}


def _covers(case: str, op: str) -> bool:
    return case == op or case.startswith(op + "_")


def test_every_graph_op_has_a_case_and_every_case_an_op():
    """Each autodiff function that builds a node has a case named <op> or <op>_<variant>."""
    tree = ast.parse(inspect.getsource(ad))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    ops = {fn.name for fn in functions
           if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                  and call.func.id == "_node" for call in ast.walk(fn))}
    assert {"add", "take_rows", "batch_norm", "cross_entropy"} <= ops
    names = case_names()
    assert [op for op in sorted(ops) if not any(_covers(c, op) for c in names)] == []
    public = {fn.name for fn in functions if not fn.name.startswith("_")}
    assert [c for c in names if c not in MODEL_CASES
            and not any(_covers(c, fn) for fn in public)] == []


@pytest.mark.parametrize("name", case_names())
def test_every_case_checks_exactly_the_leaves_its_scalar_reaches(name):
    """fd_check is handed each trainable leaf of the scalar's graph once, and nothing else."""
    for seed in range(5):
        f, params = CASES[name](ad.rng(seed, 0))
        handed = [id(v) for _, v in params]
        assert len(set(handed)) == len(handed), (name, seed)
        reached = {id(node) for node in ad._topo_order(f()) if node._grad_fn is None}
        assert set(handed) == reached, (name, seed)


def test_batched_attention_cases_use_rank3_shapes():
    for name in ("row_dot", "weighted_row_sum", "softmax_sharp", "l2_normalize"):
        _, params = CASES[name](ad.rng(0, 0))
        assert max(v.data.ndim for _, v in params) == 3, name


def test_every_case_passes_at_seeds_5_to_29():
    """With step_unfit as the only redraw rule, every kept draw passes."""
    results = run_cases(case_names(), seeds=list(range(5, 30)))
    assert len(results) == 625
    failed = [r.line() for r in results if not r.report.passed or r.report.step_unfit]
    assert not failed, failed


# first draws that sit close to a kink: only one the step cannot check is redrawn
@pytest.mark.parametrize("name, seed, attempts", [
    ("txn_net", 1, 1), ("global_max_pool_time", 38, 2), ("txn_net", 5, 2)])
def test_kink_adjacent_draws_are_redrawn_only_when_step_unfit(name, seed, attempts):
    result = run_case(name, seed)
    assert result.attempts == attempts, result.line()
    assert result.report.passed
    if attempts > 1:
        assert ad.fd_check(*CASES[name](ad.rng(seed, 0))).step_unfit
