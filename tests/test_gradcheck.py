"""Tests for the finite-difference case suite, its one redraw rule and its worker pool."""

from __future__ import annotations

import ast
import inspect
import multiprocessing
import os
import threading
import time
from concurrent import futures

import pytest

from seqcls import autodiff as ad
from seqcls import cli, gradcheck
from seqcls.errors import ConfigError
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


def test_default_sweep_is_24_cases_by_5_seeds():
    names = case_names()
    assert len(names) == 24
    assert "take_rows" in names and "stack" not in names and "transpose" not in names
    results = run_cases(names, seeds=[0, 1, 2, 3, 4])
    assert len(results) == 120
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
    assert len(results) == 600
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


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------

CAN_FORK = hasattr(os, "fork")
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.fixture
def pools(monkeypatch):
    """The pools run_cases creates, recorded as they are created."""
    made = []

    class Recorded(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Recorded)
    return made


def _forbid_pools(monkeypatch) -> None:
    """Two usable CPUs, and creating a pool fails the test."""
    def no_pool(*args, **kwargs):
        raise AssertionError("run_cases created a pool")

    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)


def _gradcheck(monkeypatch, capsys, cpus: int, *args: str) -> tuple[int, str, str]:
    monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: cpus)
    code = cli.main(["gradcheck", *args])
    out, err = capsys.readouterr()
    return code, out, err


class TestWorkerPool:
    def test_bad_arguments_raise_before_any_worker_starts(self, monkeypatch):
        _forbid_pools(monkeypatch)
        with pytest.raises(AssertionError, match="created a pool"):
            run_cases(["add"], [0, 1])
        for names, seeds, step, tol in [(["add"], [0, 1], 0.0, 1e-4), (["add"], [0, 1], 1e-3, -1.0),
                                        (["add"], [0, -1], 1e-3, 1e-4),
                                        (["add", "nope"], [0, 1], 1e-3, 1e-4)]:
            with pytest.raises(ConfigError):
                run_cases(names, seeds, step=step, tol=tol)

    def test_another_running_thread_keeps_the_runs_in_process(self, monkeypatch):
        """A forked copy holds only the calling thread, and any lock a peer held stays held."""
        _forbid_pools(monkeypatch)
        release = threading.Event()
        peer = threading.Thread(target=release.wait, args=(10,))
        peer.start()
        try:
            results = run_cases(["add"], [0, 1])
        finally:
            release.set()
            peer.join(10)
        assert not peer.is_alive()
        assert [r.line() for r in results] == [run_case("add", s).line() for s in (0, 1)]

    @pytest.mark.skipif(not CAN_FORK, reason="the pool needs the fork start method")
    def test_one_and_two_workers_give_the_same_bytes(self, monkeypatch, capsys, pools):
        """The pool is an optimisation only: its output is the in-process loop's, in order."""
        runs, lines = {}, {}
        for cpus in (1, 2):
            runs[cpus] = _gradcheck(monkeypatch, capsys, cpus, "--op", "all")
            lines[cpus] = [r.line() for r in run_cases(case_names(), list(range(30)))]
        assert len(pools) == 2
        assert runs[1] == runs[2]
        assert runs[1][0] == 0 and runs[1][1].endswith("\n120/120 case-runs passed\n")
        assert lines[1] == lines[2] and len(lines[1]) == 720
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not CAN_FORK, reason="the pool needs the fork start method")
    def test_errors_in_a_worker_read_as_they_do_in_process(self, monkeypatch, capsys, pools):
        def slow_fail(gen):
            time.sleep(0.2)
            raise ConfigError("slow_fail draw is unusable")

        def fast_fail(gen):
            raise ConfigError("fast_fail draw is unusable")

        monkeypatch.setitem(CASES, "slow_fail", slow_fail)
        monkeypatch.setitem(CASES, "fast_fail", fast_fail)
        runs = [_gradcheck(monkeypatch, capsys, cpus, "--op", "fast_fail", "--seeds", "0,1")
                for cpus in (1, 2)]
        assert runs[0] == runs[1] == (2, "", "error: fast_fail draw is unusable\n")
        # the first error in (case, seed) order is raised, not the first to happen
        monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
        with pytest.raises(ConfigError, match="slow_fail"):
            run_cases(["slow_fail", "fast_fail"], [0])
        # redraws used up: txn_block's first draw at seed 7 is step-unfit
        monkeypatch.setattr(gradcheck, "MAX_RESAMPLE", 1)
        runs = [_gradcheck(monkeypatch, capsys, cpus, "--op", "txn_block", "--seeds", "6,7")
                for cpus in (1, 2)]
        assert runs[0] == runs[1] == (
            4, "", "error: case 'txn_block': the step could check none of 1 draws\n")
        assert len(pools) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not CAN_FORK, reason="the pool needs the fork start method")
    def test_case_runs_after_the_first_error_are_dropped(self, monkeypatch, tmp_path):
        log = tmp_path / "runs.log"

        def logged_fail(gen):
            with open(log, "a") as fh:
                fh.write("run\n")
            time.sleep(0.1)
            raise ConfigError("logged_fail draw is unusable")

        monkeypatch.setitem(CASES, "logged_fail", logged_fail)
        monkeypatch.setattr(gradcheck, "_usable_cpus", lambda: 2)
        with pytest.raises(ConfigError, match="logged_fail"):
            run_cases(["logged_fail"], list(range(20)))
        assert len(log.read_text().splitlines()) < 20
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not CAN_FORK or USABLE_CPUS < 2,
                        reason="a worker can die only where the pool runs")
    def test_a_worker_that_dies_ends_the_command_with_one_line(self, monkeypatch, capsys, pools):
        parent = os.getpid()

        def die(gen):
            if os.getpid() == parent:
                raise AssertionError("the dying case ran in process")
            os._exit(1)

        monkeypatch.setitem(CASES, "die", die)
        code = cli.main(["gradcheck", "--op", "die", "--seeds", "0,1"])
        out, err = capsys.readouterr()
        assert len(pools) == 1
        assert (code, out) == (4, "")
        assert err.startswith("error: gradcheck worker died: ") and err.count("\n") == 1, err
        assert multiprocessing.active_children() == []
