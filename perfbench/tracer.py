"""Spans around the public functions of a program's modules, from outside.

``Tracer.install`` wraps every public module-level function of the given
modules and rebinds the wrapper under every name the program looks the
function up by: the defining module's attribute (used by ``ad.<op>`` style
calls and by calls inside that module) and every ``from x import name``
binding in the other modules.  Each call records a span: name, start, end,
parent span and unit id.  Spans stay in per-thread buffers until
``spans()`` merges them, so tracing writes nothing while it runs.

A unit is one piece of the workload's work, such as an optimizer step or a
gradcheck case-run.  A span whose name (and, optionally, parent name) is
listed in ``unit_starts`` opens a new unit on its thread; later spans on
that thread belong to it until the next unit starts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

_now = time.perf_counter_ns


class _ThreadBuffer:
    """Spans recorded by one thread, in the order they were opened."""

    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit = array("q")
        self.is_op = array("b")
        self.notes: dict[int, object] = {}
        self.stack: list[int] = []
        self.current_unit = -1


@dataclass
class Spans:
    """All spans of a tracing session as parallel arrays (times in ns)."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    unit: np.ndarray
    is_op: np.ndarray
    main: np.ndarray
    notes: dict[int, object]
    unit_kind: dict[int, str]

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by child spans.

        Children run on their parent's thread and nest inside it, so they
        never overlap one another and their durations can be summed.
        """
        dur = self.duration
        covered = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], dur[has_parent])
        return dur - covered

    def leaf_ops(self) -> np.ndarray:
        """Op spans with no op span nested inside them.

        Composite helpers (``affine`` calling ``reshape``/``matmul``/``add``)
        only delegate, so leaf ops are the calls that build graph nodes.
        """
        has_op_child = np.zeros(len(self.name), dtype=bool)
        child = (self.parent >= 0) & self.is_op
        has_op_child[self.parent[child]] = True
        return self.is_op & ~has_op_child

    def named(self, qualname: str) -> np.ndarray:
        """Boolean mask of the spans with this qualified name."""
        try:
            return self.name == self.names.index(qualname)
        except ValueError:
            return np.zeros(len(self.name), dtype=bool)

    def in_module(self, module: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(module + ".")]
        return np.isin(self.name, ids)

    def parent_named(self, qualname: str) -> np.ndarray:
        mask = np.zeros(len(self.name), dtype=bool)
        has_parent = self.parent >= 0
        mask[has_parent] = self.named(qualname)[self.parent[has_parent]]
        return mask

    def in_units(self, kind: str) -> np.ndarray:
        ids = [u for u, k in self.unit_kind.items() if k == kind]
        return np.isin(self.unit, ids)


class Tracer:
    def __init__(self, unit_starts: dict[str, tuple[str | None, str]] | None = None,
                 annotate: dict | None = None):
        """unit_starts maps a span name to (required parent name or None, unit kind).

        annotate maps a span name to a function of the call's arguments
        whose result is kept with the span (a file size, a model name).
        """
        self._unit_rules = dict(unit_starts or {})
        self._annotate = dict(annotate or {})
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._unit_ids = itertools.count()
        self.unit_kind: dict[int, str] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.installs = 0
        self._rules_by_id: dict[int, tuple[int | None, str]] = {}

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread() is threading.main_thread())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self, buf: _ThreadBuffer, name_id: int) -> int:
        parent = buf.stack[-1] if buf.stack else -1
        rule = self._rules_by_id.get(name_id)
        if rule is not None:
            required_parent, kind = rule
            if required_parent is None or (parent >= 0 and buf.name[parent] == required_parent):
                buf.current_unit = next(self._unit_ids)
                self.unit_kind[buf.current_unit] = kind
        idx = len(buf.name)
        buf.name.append(name_id)
        buf.parent.append(parent)
        buf.unit.append(buf.current_unit)
        buf.is_op.append(0)
        buf.end.append(0)
        buf.stack.append(idx)
        buf.start.append(_now())
        return idx

    def _close(self, buf: _ThreadBuffer, idx: int) -> None:
        buf.end[idx] = _now()
        buf.stack.pop()

    def _wrap(self, qualname: str, fn, op_type):
        name_id = self._intern(qualname)
        annotate = self._annotate.get(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per item drawn, so the time spent producing each batch
            # is charged where the consumer asked for it
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    buf = tracer._buffer()
                    idx = tracer._open(buf, name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(buf, idx)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                note = None
                if annotate is not None:  # outside the span, so it costs the span nothing
                    try:
                        note = annotate(*args, **kwargs)
                    except Exception:  # a changed signature must not break the call
                        pass
                buf = tracer._buffer()
                idx = tracer._open(buf, name_id)
                if note is not None:
                    buf.notes[idx] = note
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(buf, idx)
                if op_type is not None and isinstance(out, op_type):
                    buf.is_op[idx] = 1
                return out

        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------------

    def install(self, modules, namespaces, methods=(), op_types=None) -> None:
        """Wrap the public functions of `modules` and the given methods.

        namespaces: every module whose names may be bound to those functions.
        methods: (qualified prefix, class, method name) triples.
        op_types: module -> type; a call returning that type is an op span.
        """
        op_types = op_types or {}
        self.installs += 1
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qualname = f"{short}.{attr}"
                wrapper = self._wrap(qualname, obj, op_types.get(mod))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, name, wrapper)
                self.installed.add(qualname)
        for prefix, cls, attr in methods:
            original = cls.__dict__.get(attr)
            if not inspect.isfunction(original):
                continue
            qualname = f"{prefix}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._wrap(qualname, original, None))
            self.installed.add(qualname)
        for qualname, (parent, kind) in self._unit_rules.items():
            self._rules_by_id[self._intern(qualname)] = (
                None if parent is None else self._intern(parent), kind)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def missing(self, required) -> list[str]:
        return [name for name in required if name not in self.installed]

    # -- export ------------------------------------------------------------------

    def spans(self) -> Spans:
        parts = {k: [] for k in ("name", "start", "end", "parent", "unit", "is_op", "main")}
        notes: dict[int, object] = {}
        offset = 0
        for buf in self._buffers:
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "start", "end", "unit", "is_op"):
                arr = getattr(buf, key)
                parts[key].append(np.array(arr, dtype=np.int64))
            parts["main"].append(np.full(n, buf.is_main))
            notes.update({idx + offset: note for idx, note in buf.notes.items()})
            offset += n
        merged = {k: (np.concatenate(v) if v else np.zeros(0, np.int64)) for k, v in parts.items()}
        return Spans(names=list(self._names), name=merged["name"], start=merged["start"],
                     end=merged["end"], parent=merged["parent"], unit=merged["unit"],
                     is_op=merged["is_op"].astype(bool), main=merged["main"].astype(bool),
                     notes=notes, unit_kind=dict(self.unit_kind))
