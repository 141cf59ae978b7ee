"""Record the val_top1 each train workload reaches, per seed, into reference.json.

    python3 perfbench/record_reference.py 0-99 1000

The benchmark then requires a run on a recorded seed to land within 0.02 of
the recorded value.  Re-record only when the train workloads' configuration
changes, never to absorb a change in the program's arithmetic.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    run.import_program()
    import workloads

    seeds = parse_seeds(argv)
    reference = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name in ("train-satt", "train-txn"):
        found = {}
        for seed in seeds:
            work = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
            try:
                workload = workloads.make(name, seed, work, run.nproc())
                workload.recorded_top1 = None
                workload.setup(work / "inputs")
                ledger = run.Ledger()
                record = workload.op(ledger)
                if record is None:
                    raise SystemExit(f"{name} seed {seed}: {ledger.failures}")
                found[str(seed)] = record.quality
                print(f"{name} seed={seed} val_top1={record.quality}", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
        reference[name] = {"epochs": workload.epochs, "val_top1": found}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
