"""The benchmark's per-layer hooks must name functions that exist.

The traced benchmark run wraps program functions by name and, when one is
missing, only prints a line to stderr while its per-layer metrics read 0.
This test installs the benchmark's own tracer the way its workloads do and
fails on any name in ``perfbench/layers.HOOKS`` that did not resolve, so a
rename in ``seqcls`` fails here first.  It only reads ``perfbench/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the benchmark's modules import one another by bare name, as its runner does
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from layers import HOOKS  # noqa: E402


def test_every_benchmark_hook_resolves():
    tracer = workloads.new_tracer()
    with workloads.tracing(tracer):
        missing = tracer.missing(HOOKS)
        unknown = tracer.missing(["training.no_such_function", "training.Adam.no_such_method"])
    assert missing == []
    assert len(unknown) == 2
    assert any(name.count(".") == 2 for name in HOOKS)  # methods are checked too
