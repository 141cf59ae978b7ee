"""The tracer: hook installation, self time, units and leaf ops."""

import types

import pytest

import tracer as tracer_module
from tracer import Tracer


class Node:
    """Stands in for the program's graph-node type."""


SOURCE = '''
def leaf(x):
    return Node()

def composite(x):
    return leaf(leaf(x))

def outer():
    inner()
    inner()
    return 1

def inner():
    return 2

def step():
    return composite(1)

def items():
    yield 1
    yield 2
'''


@pytest.fixture
def modules():
    a = types.ModuleType("fakeprog.ops")
    a.Node = Node
    exec(compile(SOURCE, "ops.py", "exec"), a.__dict__)
    for obj in vars(a).values():
        if isinstance(obj, types.FunctionType):
            obj.__module__ = a.__name__
    b = types.ModuleType("fakeprog.user")
    b.outer = a.outer  # `from ops import outer`
    b.leaf = a.leaf
    return a, b


@pytest.fixture
def clock(monkeypatch):
    ticks = iter(range(0, 10**6, 10))
    monkeypatch.setattr(tracer_module, "_now", lambda: next(ticks))


def test_wrapper_replaces_every_binding_and_uninstall_restores(modules):
    a, b = modules
    original = a.outer
    t = Tracer()
    t.install([a], [a, b])
    assert a.outer is not original and b.outer is a.outer
    b.outer()
    t.uninstall()
    assert a.outer is original and b.outer is original
    names = t.spans().names
    assert "ops.outer" in names and "ops.inner" in names


def test_self_time_subtracts_nested_children(modules, clock):
    a, b = modules
    t = Tracer()
    t.install([a], [a, b])
    b.outer()  # clock reads: outer start, inner start/end, inner start/end, outer end
    t.uninstall()
    sp = t.spans()
    outer = sp.named("ops.outer")
    inner = sp.named("ops.inner")
    assert sp.duration[outer].tolist() == [50]
    assert sp.duration[inner].tolist() == [10, 10]
    assert sp.self_time()[outer].tolist() == [30]
    assert sp.self_time()[inner].tolist() == [10, 10]
    assert (sp.parent[inner] == sp.parent[inner][0]).all()


def test_units_and_leaf_ops(modules):
    a, b = modules
    t = Tracer(unit_starts={"ops.step": (None, "step")})
    t.install([a], [a, b], op_types={a: Node})
    a.step()
    a.step()
    b.leaf(0)  # outside any step: belongs to the last unit
    t.uninstall()
    sp = t.spans()
    in_steps = sp.in_units("step")
    assert len({u for u in sp.unit.tolist() if u >= 0}) == 2
    # composite only delegates: two leaf calls per step, plus the stray one
    assert int((sp.leaf_ops() & in_steps).sum()) == 5
    assert int((sp.named("ops.composite") & sp.is_op).sum()) == 2


def test_generator_spans_one_per_item(modules):
    a, b = modules
    t = Tracer()
    t.install([a], [a, b])
    assert list(a.items()) == [1, 2]
    t.uninstall()
    assert int(t.spans().named("ops.items").sum()) == 3  # two items and the final stop


def test_missing_hooks_are_named(modules):
    a, b = modules
    t = Tracer()
    t.install([a], [a, b])
    t.uninstall()
    assert t.missing(["ops.outer", "ops.renamed_away"]) == ["ops.renamed_away"]
