"""Finite-difference verification cases for every differentiable operation.

Each case builds a small random instance, reduces it to a scalar with a
fixed random cotangent, and compares analytic gradients against central
differences.  ``CASES`` names every case's builder.  Most are rows of one
table: the parameters' names and shapes, in draw order, and the op applied
to them, which ``_op_case`` turns into a builder; the rest are written out,
since their draws or their scalar do not fit that pattern.

One rule redraws a sample from the next substream: every failing
coordinate is explained by the finite-difference step rather than the
gradient (``FdReport``'s ``step_unfit``).  The step crossed a ReLU,
max-pool or clamp kink, where one-sided derivatives disagree (a step in a
weight can move a pre-activation by more than the step itself, for
instance through batch norm), or it met curvature that central
differences at that step cannot resolve.

``run_cases`` checks its arguments, then hands its (case, seed) runs to one
forked worker per usable CPU, never more than there are runs, and returns
their results in (case, seed) order, so its output is the same however
many workers ran.  With one worker (one usable CPU, one run, no ``fork`` on
the platform, or another thread running) the runs stay in process; run the
command under ``taskset -c 0`` to take that path, e.g. to profile it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BnState, FdReport, Value, check_seeds, rng
from .errors import ConfigError, NumericError
from .satt import AttentionGroupParams, SattHeadParams, SattNetParams, satt_head_forward, satt_net_forward
from .txn import TxnBlockParams, TxnParams, TxnStreamConfig, named_parameters, txn_block_forward, txn_forward

MAX_RESAMPLE = 200


def _param(gen, *shape) -> Value:
    return Value(gen.normal(size=shape) if shape else gen.normal(), requires_grad=True)


def _scalarized(gen, forward):
    """Wrap a Value-producing closure with a fixed random cotangent."""
    cot: dict[str, Value] = {}

    def f() -> Value:
        out = forward()
        if "c" not in cot:
            cot["c"] = Value(gen.normal(size=out.data.shape))
        return ad.sum_all(ad.mul(out, cot["c"]))

    return f


def _op_case(shapes: dict[str, tuple[int, ...]], op):
    """A builder drawing one parameter per name and shape, in order, scalarizing op over them."""
    def build(gen):
        params = {name: _param(gen, *shape) for name, shape in shapes.items()}
        return _scalarized(gen, lambda: op(**params)), list(params.items())

    return build


def _case_sum_all(gen):
    x = _param(gen, 2, 5)
    return (lambda: ad.sum_all(ad.mul(x, x))), [("x", x)]


def _case_zero_pad_time(gen):
    x = _param(gen, 4, 3)
    c_pad = Value(gen.normal(size=(7, 3)))
    c_cut = Value(gen.normal(size=(2, 3)))

    def f():
        padded = ad.sum_all(ad.mul(ad.zero_pad_time(x, 7), c_pad))
        cut = ad.sum_all(ad.mul(ad.zero_pad_time(x, 2), c_cut))
        return ad.add(padded, cut)

    return f, [("x", x)]


def _case_batch_norm_infer(gen):
    x, g, b = _param(gen, 5, 3), _param(gen, 3), _param(gen, 3)
    state = BnState(mean=gen.normal(size=3), var=np.abs(gen.normal(size=3)) + 0.5)
    return (_scalarized(gen, lambda: ad.batch_norm(x, g, b, state, mode="infer")),
            [("x", x), ("gamma", g), ("beta", b)])


def _case_cross_entropy(gen):
    logits = _param(gen, 4, 3)
    labels = [int(v) for v in gen.integers(0, 3, size=4)]
    return (lambda: ad.cross_entropy(logits, labels)), [("logits", logits)]


def _case_satt_head(gen):
    head = SattHeadParams.init(4, gen)
    x = _param(gen, 5, 4)
    fwd = _scalarized(gen, lambda: satt_head_forward(head, x, alpha=1.3))
    return fwd, [("x", x), ("w", head.w), ("a", head.a), ("b", head.b)]


def _case_satt_net(gen):
    groups = [AttentionGroupParams.init("m0", feature_dim=3, num_heads=2, alpha=1.0, gen=gen),
              AttentionGroupParams.init("m1", feature_dim=4, num_heads=2, alpha=2.0, gen=gen)]
    net = SattNetParams.init(groups, num_classes=3, gen=gen)
    seqs = {"m0": Value(gen.normal(size=(5, 3))), "m1": Value(gen.normal(size=(5, 4)))}
    return _scalarized(gen, lambda: satt_net_forward(net, seqs)), net.parameters()


def _case_txn_block(gen):
    block = TxnBlockParams.init(channels=4, kernel_size=3, gen=gen)
    x = _param(gen, 6, 4)
    fwd = _scalarized(gen, lambda: txn_block_forward(block, x, mode="train"))
    return fwd, [("x", x)] + named_parameters(block)


def _case_txn_net(gen):
    # sequences at least pad_len long, so pooling never sees duplicated
    # zero rows, whose exact ties sit on a max-pool kink
    configs = [TxnStreamConfig("m0", feature_dim=3, pad_len=8, num_segments=4,
                               kernel_size=3, block_channels=4, num_blocks=1)]
    net = TxnParams.init(configs, num_classes=3, gen=gen)
    net.classifier_w.data[...] = gen.normal(size=net.classifier_w.data.shape)
    seqs = {"m0": Value(gen.normal(size=(9, 3)))}
    return _scalarized(gen, lambda: txn_forward(net, seqs, mode="infer")), net.parameters()


# The ops call ad.<op> when they run, so wrappers installed on the autodiff
# module see gradcheck's calls too.
CASES = {
    "add": _op_case({"a": (3, 4), "b": (4,), "s": ()}, lambda a, b, s: ad.add(ad.add(a, b), s)),
    "mul": _op_case({"a": (3, 4), "b": (4,), "s": ()}, lambda a, b, s: ad.mul(ad.mul(a, b), s)),
    "relu": _op_case({"x": (3, 4)}, lambda x: ad.relu(x)),
    "reshape": _op_case({"x": (2, 6)}, lambda x: ad.reshape(x, (3, 4))),
    "concat": _op_case({"a": (2, 3), "b": (1, 3), "c": (3, 3)},
                       lambda a, b, c: ad.concat([a, b, c], axis=0)),
    "matmul": _op_case({"a": (3, 4), "b": (4, 2)}, lambda a, b: ad.matmul(a, b)),
    "affine": _op_case({"x": (2, 5), "w": (5, 3), "b": (3,)}, lambda x, w, b: ad.affine(x, w, b)),
    "row_dot": _op_case({"x": (2, 2, 3), "w": (2, 3)}, lambda x, w: ad.row_dot(x, w)),
    "weighted_row_sum": _op_case({"wts": (2, 2, 3), "x": (2, 3, 2)},
                                 lambda wts, x: ad.weighted_row_sum(wts, x)),
    # row 2 is taken twice and row 1 never, so backward must add repeats up
    "take_rows": _op_case({"x": (4, 3)}, lambda x: ad.take_rows(x, [2, 0, 2, 3])),
    "softmax_sharp": _op_case({"x": (2, 1, 3)}, lambda x: ad.softmax_sharp(x, alpha=1.7)),
    "l2_normalize": _op_case({"v": (1, 1, 5)}, lambda v: ad.l2_normalize(v)),
    "adaptive_max_pool1d": _op_case({"x": (7, 3)}, lambda x: ad.adaptive_max_pool1d(x, 3)),
    "global_max_pool_time": _op_case({"x": (6, 4)}, lambda x: ad.global_max_pool_time(x)),
    "depthwise_conv1d": _op_case({"x": (6, 4), "k": (3, 4)},
                                 lambda x, k: ad.depthwise_conv1d(x, k)),
    "pointwise_conv1d": _op_case({"x": (6, 3), "w": (3, 4), "b": (4,)},
                                 lambda x, w, b: ad.pointwise_conv1d(x, w, b)),
    "batch_norm_train": _op_case({"x": (5, 3), "gamma": (3,), "beta": (3,)},
                                 lambda x, gamma, beta: ad.batch_norm(
                                     x, gamma, beta, BnState.fresh(3), mode="train")),
    "sum_all": _case_sum_all,
    "zero_pad_time": _case_zero_pad_time,
    "batch_norm_infer": _case_batch_norm_infer,
    "cross_entropy": _case_cross_entropy,
    "satt_head": _case_satt_head,
    "satt_net": _case_satt_net,
    "txn_block": _case_txn_block,
    "txn_net": _case_txn_net,
}


def case_names() -> list[str]:
    return sorted(CASES)


@dataclass
class CaseResult:
    name: str
    seed: int
    attempts: int
    report: FdReport

    def line(self) -> str:
        return f"{self.name} seed={self.seed} attempts={self.attempts} {self.report.summary()}"


def _check(names, seeds, step: float, tol: float) -> None:
    """Raise for an argument that no case-run could take: case, seed, step or tol."""
    for name in names:
        if name not in CASES:
            raise ConfigError(f"unknown gradcheck case {name!r}; known: {', '.join(case_names())}")
    check_seeds(*seeds)
    ad._check_fd_args(step, tol)


def run_case(name: str, seed: int, step: float = 1e-3, tol: float = 1e-4) -> CaseResult:
    """Verify one case at one seed, redrawing samples the step cannot check."""
    _check([name], [seed], step, tol)
    for attempt in range(MAX_RESAMPLE):
        f, params = CASES[name](rng(seed, attempt))
        report = ad.fd_check(f, params, step=step, tol=tol)
        if not report.step_unfit:
            return CaseResult(name=name, seed=seed, attempts=attempt + 1, report=report)
    raise NumericError(f"case {name!r}: the step could check none of {MAX_RESAMPLE} draws")


def _run_task(task: tuple[str, int, float, float]) -> CaseResult:
    # looks run_case up when it runs, so a wrapper installed on this module
    # runs in the workers too; the pool pickles this function by its name
    return run_case(*task)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say or cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def run_cases(names: list[str], seeds: list[int], step: float = 1e-3,
              tol: float = 1e-4) -> list[CaseResult]:
    """Verify every case at every seed; results come in (case, seed) order.

    Bad arguments raise before any worker starts.  The first error a
    case-run raises is raised here, the runs not yet started are dropped,
    and every worker has exited when this returns.  A worker that dies
    raises ``NumericError`` "gradcheck worker died: ...".
    """
    _check(names, seeds, step, tol)
    tasks = [(name, seed, step, tol) for name in names for seed in seeds]
    workers = min(_usable_cpus(), len(tasks))
    # fork copies only the calling thread: a lock another thread holds stays held in the copy
    if workers < 2 or threading.active_count() > 1:
        return [_run_task(task) for task in tasks]
    # imported here, so that the other commands load none of the pool's modules
    import multiprocessing
    from concurrent import futures

    with futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            return list(pool.map(_run_task, tasks, chunksize=1))
        except futures.BrokenExecutor as exc:
            raise NumericError(f"gradcheck worker died: {exc}") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
