"""The planted-defect list must keep pointing at code and tests that exist.

``run_mutants.py`` is the slow check that each mutant is caught; this one
only reads files, so a refactor that moves a mutant's old text or renames
one of its tests fails here, in Tier-1.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mutants import MUTANTS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_and_tests_exist(mutant):
    assert mutant.new != mutant.old
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests
    for node in mutant.tests:
        path, *scopes = node.split("::")
        source = (ROOT / path).read_text()
        for scope in scopes[:-1]:
            assert f"class {scope}:" in source, node
        assert f"def {scopes[-1]}(" in source, node
