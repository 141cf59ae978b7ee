"""Finite-difference verification cases for every differentiable operation.

Each case builds a small random instance, reduces it to a scalar with a
fixed random cotangent, and compares analytic gradients against central
differences.  One rule redraws a sample from the next substream: every
failing coordinate is explained by the finite-difference step rather than
the gradient (``FdReport``'s ``step_unfit``).  The step crossed a ReLU,
max-pool or clamp kink, where one-sided derivatives disagree (a step in a
weight can move a pre-activation by more than the step itself, for
instance through batch norm), or it met curvature that central
differences at that step cannot resolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BnState, FdReport, Value, rng
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


def _case_add(gen):
    a, b = _param(gen, 3, 4), _param(gen, 4)
    s = _param(gen)
    return _scalarized(gen, lambda: ad.add(ad.add(a, b), s)), [("a", a), ("b", b), ("s", s)]


def _case_mul(gen):
    a, b = _param(gen, 3, 4), _param(gen, 4)
    s = _param(gen)
    return _scalarized(gen, lambda: ad.mul(ad.mul(a, b), s)), [("a", a), ("b", b), ("s", s)]


def _case_sum_all(gen):
    x = _param(gen, 2, 5)

    def f():
        return ad.sum_all(ad.mul(x, x))

    return f, [("x", x)]


def _case_relu(gen):
    x = _param(gen, 3, 4)
    return _scalarized(gen, lambda: ad.relu(x)), [("x", x)]


def _case_reshape(gen):
    x = _param(gen, 2, 6)
    return _scalarized(gen, lambda: ad.reshape(x, (3, 4))), [("x", x)]


def _case_concat(gen):
    a, b, c = _param(gen, 2, 3), _param(gen, 1, 3), _param(gen, 3, 3)
    return _scalarized(gen, lambda: ad.concat([a, b, c], axis=0)), [("a", a), ("b", b), ("c", c)]


def _case_matmul(gen):
    a, b = _param(gen, 3, 4), _param(gen, 4, 2)
    return _scalarized(gen, lambda: ad.matmul(a, b)), [("a", a), ("b", b)]


def _case_affine(gen):
    x, w, b = _param(gen, 2, 5), _param(gen, 5, 3), _param(gen, 3)
    return _scalarized(gen, lambda: ad.affine(x, w, b)), [("x", x), ("w", w), ("b", b)]


def _case_row_dot(gen):
    x, w = _param(gen, 2, 2, 3), _param(gen, 2, 3)
    return _scalarized(gen, lambda: ad.row_dot(x, w)), [("x", x), ("w", w)]


def _case_weighted_row_sum(gen):
    wts, x = _param(gen, 2, 2, 3), _param(gen, 2, 3, 2)
    return _scalarized(gen, lambda: ad.weighted_row_sum(wts, x)), [("wts", wts), ("x", x)]


def _case_take_rows(gen):
    # row 2 is taken twice and row 1 never, so backward must add repeats up
    x = _param(gen, 4, 3)
    return _scalarized(gen, lambda: ad.take_rows(x, [2, 0, 2, 3])), [("x", x)]


def _case_softmax_sharp(gen):
    x = _param(gen, 2, 1, 3)
    return _scalarized(gen, lambda: ad.softmax_sharp(x, alpha=1.7)), [("x", x)]


def _case_l2_normalize(gen):
    v = _param(gen, 1, 1, 5)
    return _scalarized(gen, lambda: ad.l2_normalize(v)), [("v", v)]


def _case_zero_pad_time(gen):
    x = _param(gen, 4, 3)
    c_pad = Value(gen.normal(size=(7, 3)))
    c_cut = Value(gen.normal(size=(2, 3)))

    def f():
        padded = ad.sum_all(ad.mul(ad.zero_pad_time(x, 7), c_pad))
        cut = ad.sum_all(ad.mul(ad.zero_pad_time(x, 2), c_cut))
        return ad.add(padded, cut)

    return f, [("x", x)]


def _case_adaptive_max_pool1d(gen):
    x = _param(gen, 7, 3)
    return _scalarized(gen, lambda: ad.adaptive_max_pool1d(x, 3)), [("x", x)]


def _case_global_max_pool_time(gen):
    x = _param(gen, 6, 4)
    return _scalarized(gen, lambda: ad.global_max_pool_time(x)), [("x", x)]


def _case_depthwise_conv1d(gen):
    x, k = _param(gen, 6, 4), _param(gen, 3, 4)
    return _scalarized(gen, lambda: ad.depthwise_conv1d(x, k)), [("x", x), ("k", k)]


def _case_pointwise_conv1d(gen):
    x, w, b = _param(gen, 6, 3), _param(gen, 3, 4), _param(gen, 4)
    return _scalarized(gen, lambda: ad.pointwise_conv1d(x, w, b)), [("x", x), ("w", w), ("b", b)]


def _case_batch_norm_train(gen):
    x, g, b = _param(gen, 5, 3), _param(gen, 3), _param(gen, 3)
    return (_scalarized(gen, lambda: ad.batch_norm(x, g, b, BnState.fresh(3), mode="train")),
            [("x", x), ("gamma", g), ("beta", b)])


def _case_batch_norm_infer(gen):
    x, g, b = _param(gen, 5, 3), _param(gen, 3), _param(gen, 3)
    state = BnState(mean=gen.normal(size=3), var=np.abs(gen.normal(size=3)) + 0.5)
    return (_scalarized(gen, lambda: ad.batch_norm(x, g, b, state, mode="infer")),
            [("x", x), ("gamma", g), ("beta", b)])


def _case_cross_entropy(gen):
    logits = _param(gen, 4, 3)
    labels = [int(v) for v in gen.integers(0, 3, size=4)]

    def f():
        return ad.cross_entropy(logits, labels)

    return f, [("logits", logits)]


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


# every _case_<name> builder above, under <name>
CASES = {name.removeprefix("_case_"): build for name, build in globals().items()
         if name.startswith("_case_")}


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


def run_case(name: str, seed: int, step: float = 1e-3, tol: float = 1e-4) -> CaseResult:
    """Verify one case at one seed, redrawing samples the step cannot check."""
    builder = CASES.get(name)
    if builder is None:
        raise ConfigError(f"unknown gradcheck case {name!r}; known: {', '.join(case_names())}")
    for attempt in range(MAX_RESAMPLE):
        f, params = builder(rng(seed, attempt))
        report = ad.fd_check(f, params, step=step, tol=tol)
        if not report.step_unfit:
            return CaseResult(name=name, seed=seed, attempts=attempt + 1, report=report)
    raise NumericError(f"case {name!r}: the step could check none of {MAX_RESAMPLE} draws")


def run_cases(names: list[str], seeds: list[int], step: float = 1e-3,
              tol: float = 1e-4) -> list[CaseResult]:
    return [run_case(name, seed, step=step, tol=tol) for name in names for seed in seeds]
