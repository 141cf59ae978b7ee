"""seqcls benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of train-satt, train-txn, score, gradcheck; `all` runs each of
them in its own process and then `reference`, which retrains the three
models at the reference configuration and compares their accuracy with
tests/reference_fixtures.json.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from a
traced run (see NOTES.md for every definition).
"""

from __future__ import annotations

import os
import sys

# Eval threads x BLAS threads must not exceed the core count: fix the BLAS
# pool at one thread before NumPy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from core import Ledger, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_OPS = 2  # at least two repeats, so byte-identity between them is checked
CHILD_TIMEOUT_S = 900
WORKLOADS = ("train-satt", "train-txn", "score", "gradcheck")

# end-to-end metric -> unit; BENCHMARK.json lists the same names
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "unit_s_p50": "s", "quality": "fraction",
              "ok_share": "fraction", "peak_rss_mb": "MB"}


def import_program():
    """Import seqcls from this checkout's src/, never from anywhere else."""
    if not (SRC / "seqcls" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no seqcls sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqcls
    if not Path(seqcls.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: seqcls imported from {seqcls.__file__}, not {SRC}")
    return seqcls


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def context(np_module) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np_module.__version__,
            "nproc": nproc(), "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def measure(workload, ledger, seconds: float | None = None, count: int | None = None,
            tracer=None) -> list:
    """Run operations for `seconds` (at least MIN_OPS) or exactly `count` times.

    Returns one entry per operation: its record, or None if it failed.
    """
    records = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        if count is not None and len(records) >= count:
            break
        if count is None and len(records) >= MIN_OPS and time.perf_counter() >= deadline:
            break
        records.append(workload.op(ledger, tracer))
    return records


def setup_all(workload, work: Path) -> list[float]:
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir()
        started = time.perf_counter()
        workload.setup(rep_dir)
        times.append(time.perf_counter() - started)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(rep_dir)
    return times


def end_to_end(records, setup_times, ledger) -> dict[str, float]:
    ok = [r for r in records if r is not None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": median(setup_times),
            "work_per_s": median(r.work_per_s for r in ok),
            "unit_s_p50": median(s for r in ok for s in r.unit_s),
            "quality": median(r.quality for r in ok),
            "ok_share": 1.0 - ledger.failed_share,
            "peak_rss_mb": rss_mb}


def print_summary(workload, metrics, records, setup_times, ledger) -> None:
    """The end-to-end metrics under the names NOTES.md uses, with n."""
    ok = [r for r in records if r is not None]
    n_units = sum(len(r.unit_s) for r in ok)
    rows = [("setup_s", metrics["setup_s"], "s", f"median of {len(setup_times)} set-ups")]
    name, unit = workload.labels["work_per_s"]
    rows.append((name, metrics["work_per_s"], unit, f"median of {len(ok)} runs"))
    for key in sorted({k for r in ok for k in r.extra}):
        rows.append((key, median(r.extra[key] for r in ok), unit, f"median of {len(ok)} runs"))
    name, unit = workload.labels["unit_s_p50"]
    rows.append((name, metrics["unit_s_p50"], unit, f"n={n_units}"))
    name, unit = workload.labels["quality"]
    rows.append((name, metrics["quality"], unit, f"median of {len(ok)} runs"))
    rows.append(("failed_share", ledger.failed_share, "fraction",
                 f"{ledger.failed}/{ledger.attempted} operations"))
    rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss"))
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<12} {note}")


def run_traced(workload, ledger, seconds: float, work: Path) -> dict[str, float]:
    """Per-layer metrics: the same operations untraced, then traced."""
    from layers import layer_metrics
    from workloads import new_tracer

    setup_tracer = new_tracer()
    rep_dir = work / "setup_traced"
    rep_dir.mkdir()
    workload.setup(rep_dir, tracer=setup_tracer)

    plain = measure(workload, ledger, seconds=seconds / 2)
    tracer = new_tracer()
    traced = measure(workload, ledger, count=len(plain), tracer=tracer)

    metrics = layer_metrics(tracer.spans(), workload.unit_kind, setup_tracer.spans())
    plain_wall = sum(r.traced_wall for r in plain if r is not None)
    traced_wall = sum(r.traced_wall for r in traced if r is not None)
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0
    ok = [r for r in plain if r is not None and "score_videos_per_s_mt" in r.extra]
    metrics["training.evaluate_mt_speedup"] = (
        median(r.extra["score_videos_per_s_mt"] / r.work_per_s for r in ok) if ok else 0.0)
    return metrics


def run_workload(args) -> int:
    import_program()
    import numpy as np
    import workloads
    from layers import PER_LAYER

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    ledger = Ledger()
    try:
        if args.workload == "reference":
            print("reference: seed 42, program defaults, against tests/reference_fixtures.json")
            found = workloads.check_reference(ROOT, work, ledger)
            for key, value in found.items():
                print(f"  {key:<28} {value:>14.6g} fraction")
            result_metrics = {k: {"value": v, "unit": "fraction"} for k, v in found.items()}
        else:
            workload = workloads.make(args.workload, args.seed, work, nproc())
            setup_times = setup_all(workload, work)
            print(f"{workload.name} seed={workload.seed} "
                  + " ".join(f"{k}={v}" for k, v in context(np).items()))
            if args.trace:
                metrics = run_traced(workload, ledger, args.seconds, work)
                result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
                print(f"  traced, per {workload.unit_kind} unit ({metrics['trace.units']:.0f} units)")
                for k, u in PER_LAYER.items():
                    print(f"  {k:<44} {metrics[k]:>14.6g} {u}")
            else:
                records = measure(workload, ledger, seconds=args.seconds)
                metrics = end_to_end(records, setup_times, ledger)
                print_summary(workload, metrics, records, setup_times, ledger)
                result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for failure in ledger.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0 and ledger.attempted > 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": result_metrics}))
    return 0


def run_all(args) -> int:
    """Each workload, then the reference check, in a process of its own."""
    import_program()
    results = {}
    for name in WORKLOADS + ("reference",):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            results[name] = None
    attempted = sum(r["attempted"] for r in results.values() if r)
    failed = sum(r["failed"] for r in results.values() if r)
    print(json.dumps({"correct": all(r and r["correct"] for r in results.values()),
                      "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{k}": v for w, r in results.items() if r
                                  for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("reference", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
