"""Per-layer metrics, computed from the spans of a traced run.

Every metric is normalised per unit of the workload's work (an optimizer
step, a scored video or a gradcheck case-run) unless its name says
otherwise.  Op-level numbers count only spans inside the workload's units,
so the forward passes of per-epoch evaluation do not leak into per-step
figures on the train workloads.  Only main-thread spans are used: worker
threads of a threaded evaluation interleave under the interpreter lock and
their spans would double-count wall time.
"""

from __future__ import annotations

import numpy as np

from core import median, tail_percentile
from tracer import Spans

SATT_OPS = ("add", "mul", "reshape", "concat", "matmul", "row_dot", "softmax_sharp",
            "weighted_row_sum", "l2_normalize", "cross_entropy")
TXN_OPS = ("zero_pad_time", "adaptive_max_pool1d", "depthwise_conv1d", "pointwise_conv1d",
           "batch_norm", "relu", "global_max_pool_time")
MODELS = ("satt", "txn", "meanpool")

# per-layer metric name -> unit, in report order
PER_LAYER: dict[str, str] = {"autodiff.op_calls": "count"}
for _op in SATT_OPS + TXN_OPS:
    PER_LAYER[f"autodiff.{_op}.calls"] = "count"
    PER_LAYER[f"autodiff.{_op}.self_ms"] = "ms"
PER_LAYER.update({
    "autodiff.backward_ms": "ms",
    "autodiff.fd_check_ms": "ms",
    "gradcheck.case_run_ms_p50": "ms",
    "gradcheck.case_run_ms_tail": "ms",
    "gradcheck.case_run_tail_pct": "%",
    "gradcheck.case_run_n": "count",
    "satt.forward_ms": "ms",
    "satt.self_ms": "ms",
    "txn.forward_ms": "ms",
    "txn.self_ms": "ms",
    "training.forward_ms": "ms",
    "training.optim_ms": "ms",
    "training.zero_grads_ms": "ms",
    "training.step_ms_p50": "ms",
    "training.step_ms_tail": "ms",
    "training.step_tail_pct": "%",
    "training.step_n": "count",
    "training.eval_ms_per_epoch": "ms",
    **{f"training.evaluate_ms_per_video.{m}": "ms" for m in MODELS},
    "training.load_model_ms": "ms",
    "training.evaluate_mt_speedup": "x",
    "data.read_mmf_ms": "ms",
    "data.read_mmf_mb_per_s": "MB/s",
    "data.checkpoint_io_ms": "ms",
    "data.write_mmf_ms": "ms",
    "data.batch_iter_ms": "ms",
    "fusion.mean_pool_forward_ms": "ms",
    "fusion.late_fuse_ms": "ms",
    "fusion.scores_io_ms": "ms",
    "fusion.top_k_ms": "ms",
    "cli.self_ms": "ms",
    "trace.units": "count",
    "trace.overhead_share": "fraction",
})

OPTIMIZER_STEPS = ("training.Adam.step", "training.SgdMomentum.step")

# the program names these metrics read; a missing one is reported by name
HOOKS = tuple(f"autodiff.{op}" for op in SATT_OPS + TXN_OPS) + (
    "autodiff.backward", "autodiff.zero_grads", "autodiff.fd_check",
    "satt.satt_net_forward", "txn.txn_forward", "txn.txn_forward_batch",
    "training.train", "training.evaluate", "training.batch_logits", "training.load_model",
    *OPTIMIZER_STEPS,
    "data.read_mmf", "data.write_mmf", "data.read_checkpoint", "data.write_checkpoint",
    "data.batch_iter",
    "fusion.mean_pool_forward", "fusion.late_fuse", "fusion.read_scores", "fusion.write_scores",
    "fusion.top_k_accuracy",
    "gradcheck.run_case", "cli.main",
)

NS_PER_MS = 1e6


def _unit_count(sp: Spans, kind: str) -> float:
    if kind == "eval":
        # one unit per scored video: evaluate spans carry (model, threads, videos)
        notes = [sp.notes.get(int(i)) for i in np.flatnonzero(sp.named("training.evaluate") & sp.main)]
        return float(sum(n[2] for n in notes if n and n[1] == 1))
    kinds = {u for u, k in sp.unit_kind.items() if k == kind}
    return float(len(set(sp.unit[sp.main].tolist()) & kinds))


def _step_durations_ms(sp: Spans) -> list[float]:
    """Per optimizer step: from zero_grads inside train to the end of the optimizer step."""
    starts = sp.named("autodiff.zero_grads") & sp.parent_named("training.train") & sp.main
    first = dict(zip(sp.unit[starts].tolist(), sp.start[starts].tolist()))
    opt = np.zeros(len(sp.name), dtype=bool)
    for name in OPTIMIZER_STEPS:
        opt |= sp.named(name)
    opt &= sp.main
    last: dict[int, int] = {}
    for unit, end in zip(sp.unit[opt].tolist(), sp.end[opt].tolist()):
        last[unit] = max(end, last.get(unit, end))
    return [(last[u] - first[u]) / NS_PER_MS for u in first if u in last]


def _median_and_tail(samples: list[float]) -> tuple[float, float, float, int]:
    tail = tail_percentile(samples)
    pct, value = (tail[0], tail[1]) if tail else (0.0, 0.0)
    return median(samples), value, pct, len(samples)


def layer_metrics(sp: Spans, kind: str, setup: Spans | None = None) -> dict[str, float]:
    """Every PER_LAYER metric except the two the runner measures untraced."""
    units = _unit_count(sp, kind)
    per = 1.0 / units if units else 0.0
    dur = sp.duration / NS_PER_MS
    self_ms = sp.self_time() / NS_PER_MS
    main = sp.main
    in_unit = main & sp.in_units(kind)

    def total(mask) -> float:
        return float(dur[mask].sum()) * per

    def named(*names):
        mask = np.zeros(len(sp.name), dtype=bool)
        for name in names:
            mask |= sp.named(name)
        return mask & main

    out: dict[str, float] = {"autodiff.op_calls": float((sp.leaf_ops() & in_unit).sum()) * per}
    for op in SATT_OPS + TXN_OPS:
        mask = sp.named(f"autodiff.{op}") & in_unit
        out[f"autodiff.{op}.calls"] = float(mask.sum()) * per
        out[f"autodiff.{op}.self_ms"] = float(self_ms[mask].sum()) * per
    out["autodiff.backward_ms"] = total(named("autodiff.backward") & in_unit)
    out["autodiff.fd_check_ms"] = total(named("autodiff.fd_check"))

    p50, tail, pct, n = _median_and_tail(dur[named("gradcheck.run_case")].tolist())
    out.update({"gradcheck.case_run_ms_p50": p50, "gradcheck.case_run_ms_tail": tail,
                "gradcheck.case_run_tail_pct": pct, "gradcheck.case_run_n": float(n)})

    for module in ("satt", "txn"):
        mod = sp.in_module(module) & in_unit
        outermost = mod & ~np.isin(sp.parent, np.flatnonzero(mod))
        out[f"{module}.forward_ms"] = total(outermost)
        out[f"{module}.self_ms"] = float(self_ms[mod].sum()) * per

    out["training.forward_ms"] = total(named("training.batch_logits") & in_unit)
    out["training.optim_ms"] = total(named(*OPTIMIZER_STEPS))
    out["training.zero_grads_ms"] = total(named("autodiff.zero_grads")
                                          & sp.parent_named("training.train"))
    p50, tail, pct, n = _median_and_tail(_step_durations_ms(sp))
    out.update({"training.step_ms_p50": p50, "training.step_ms_tail": tail,
                "training.step_tail_pct": pct, "training.step_n": float(n)})

    epochs = named("training.evaluate") & sp.parent_named("training.train")
    out["training.eval_ms_per_epoch"] = float(dur[epochs].mean()) if epochs.any() else 0.0
    for model in MODELS:
        ms, videos = 0.0, 0
        for i in np.flatnonzero(named("training.evaluate")):
            note = sp.notes.get(int(i))
            if note and note[0] == model and note[1] == 1:
                ms += float(dur[i])
                videos += note[2]
        out[f"training.evaluate_ms_per_video.{model}"] = ms / videos if videos else 0.0
    out["training.load_model_ms"] = total(named("training.load_model"))

    reads = named("data.read_mmf")
    out["data.read_mmf_ms"] = total(reads)
    read_bytes = sum(sp.notes.get(int(i)) or 0 for i in np.flatnonzero(reads))
    read_s = float(dur[reads].sum()) / 1e3
    out["data.read_mmf_mb_per_s"] = read_bytes / 1e6 / read_s if read_s else 0.0
    out["data.checkpoint_io_ms"] = total(named("data.read_checkpoint", "data.write_checkpoint"))
    out["data.write_mmf_ms"] = (float((setup.duration[setup.named("data.write_mmf")]).sum())
                                / NS_PER_MS if setup is not None else 0.0)
    out["data.batch_iter_ms"] = total(named("data.batch_iter"))

    pools = named("fusion.mean_pool_forward")
    out["fusion.mean_pool_forward_ms"] = total(pools & ~np.isin(sp.parent, np.flatnonzero(pools)))
    out["fusion.late_fuse_ms"] = total(named("fusion.late_fuse"))
    out["fusion.scores_io_ms"] = total(named("fusion.read_scores", "fusion.write_scores"))
    out["fusion.top_k_ms"] = total(named("fusion.top_k_accuracy"))
    out["cli.self_ms"] = float(self_ms[sp.in_module("cli") & main].sum()) * per
    out["trace.units"] = units
    return out
