"""Apply each planted defect of ``mutants.py`` to a copy of the repository and run its tests.

Usage, from the repository root:

    python3 tests/run_mutants.py [NAME ...]

For every mutant (or only the named ones) the script copies the
repository into a temporary directory, replaces the mutant's old text with
its new text and runs the mutant's tests there with pytest.  A mutant is
killed when pytest reports failing tests and survives when they all pass.
The same tests first run on an unmutated copy, where they must pass.  One
line per mutant is printed; the exit status is 1 if any mutant survived or
any run went wrong, else 0.  Not collected by pytest: it runs pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mutants import MUTANTS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".benchmarks", ".perfbench_work")


def run_tests(repo: Path, tests) -> tuple[int, str]:
    """pytest's exit status on the tests in repo, and its last output line."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=repo, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    return done.returncode, lines[-1]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=SKIP)
        status, summary = run_tests(repo, sorted({t for m in chosen for t in m.tests}))
        print(f"{'unmutated':32} {'pass' if status == 0 else 'FAIL'}: {summary}")
        if status != 0:
            return 1
        for m in chosen:
            path = repo / m.path
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name:32} ERROR: old text occurs {original.count(m.old)} times")
                bad += 1
                continue
            path.write_text(original.replace(m.old, m.new))
            try:
                status, summary = run_tests(repo, m.tests)
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            bad += verdict != "killed"
            print(f"{m.name:32} {verdict}: {summary}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
