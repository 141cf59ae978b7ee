"""Every name a module of the package imports or keeps private is used in that module,
and the package stays under its line ceiling."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seqcls"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name listed in a module-level ``__all__`` counts as read, since it is
    imported to be re-exported.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_names_and_honours_all():
    source = ("import os\nimport numpy as np\nfrom .x import a, b as c\n"
              "__all__ = ['a']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def unused_private_names(source: str) -> list[str]:
    """Module-level private functions and constants that the module never reads.

    A private name starts with one underscore.
    """
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda kv: kv[1])
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_helpers(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_private_helpers():
    source = ("_USED = 1\n_UNUSED = 2\n__dunder__ = 3\nPUBLIC = 4\n"
              "def _helper():\n    return _USED\n"
              "def _orphan(): pass\n"
              "def _case_add(): pass\n"
              "def public():\n    _UNUSED = 5\n    return _helper()\n")
    assert unused_private_names(source) == ["line 2: _UNUSED", "line 7: _orphan",
                                            "line 8: _case_add"]


# The lines of src/seqcls/*.py that the package may hold.  A change that
# needs more raises this number and says why in CHANGES.md.
SRC_LINE_CEILING = 3286


def test_src_stays_under_its_line_ceiling():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING
