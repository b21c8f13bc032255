"""Raise-to-pass mutation check: does some test notice when a guard is gone?

Run from anywhere, with the standard library and the test extra installed:

    python3 tests/mutants.py

There is one mutant per ``raise`` statement of ``src/spherebundles/*.py``,
in file and line order: that statement is replaced by ``pass``.  Each mutant
is written into its own copy of the repository, and the tier-1 suite runs
there, stopping at the first failure, without the slow acceptance 03; two
suites run at once.  A mutant is *killed* when the suite fails, *survived*
when it passes, and *allowed* when it passes but its guard is on the
allow-list below.

One JSON verdict per mutant goes to stdout, in mutant order, and a summary
to stderr.  The exit status is 1 if any mutant survives, and 2 if the suite
fails on the unmutated copy.  The file is not collected by pytest.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spherebundles"
PYTEST = (
    "-x", "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_acceptance.py::test_criterion_03_uniqueness_evidence",
)
# a mutant that hangs has changed behaviour; count it as killed
TIMEOUT_S = 300
WORKERS = 2

# (file, text of the raise statement): why no test can reach it
ALLOWED = {
    ("verify.py", "does not carry facets onto facets"):
        "are_isomorphic's witness self-check: the search only completes mappings "
        "that carry every facet onto a facet",
    ("cli.py", '"unreachable"'):
        "argparse admits only the subcommands that run() handles above it",
    ("handles.py", "reduced pairing"):
        "two_stack_reduction's distance self-check: the reduction keeps every "
        "matched distance at least three",
}


@dataclass(frozen=True)
class Mutant:
    file: str
    line: int
    end_line: int
    col: int
    end_col: int
    text: str

    @property
    def allowed(self) -> bool:
        return any(file == self.file and fragment in self.text for file, fragment in ALLOWED)


def mutants() -> list[Mutant]:
    """Every raise statement of the package, in file and line order."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        raises = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
        for node in sorted(raises, key=lambda n: (n.lineno, n.col_offset)):
            found.append(Mutant(
                path.name, node.lineno, node.end_lineno, node.col_offset,
                node.end_col_offset, ast.get_source_segment(source, node),
            ))
    return found


def mutate(source: str, m: Mutant) -> str:
    """``source`` with the raise statement of ``m`` replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    first, last = lines[m.line - 1], lines[m.end_line - 1]
    lines[m.line - 1 : m.end_line] = [first[: m.col] + "pass" + last[m.end_col :]]
    return "".join(lines)


def _copy(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out",
    )
    shutil.copytree(ROOT, dest, ignore=ignore)
    return dest


def _suite(copy: Path) -> tuple[bool, float]:
    """(passed, seconds) of the tier-1 suite run on ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST], cwd=copy, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, perf_counter() - start


def run_mutant(m: Mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = _copy(Path(tmp) / "repo")
        target = copy / "src" / "spherebundles" / m.file
        target.write_text(mutate(target.read_text(encoding="utf-8"), m), encoding="utf-8")
        passed, seconds = _suite(copy)
    verdict = "killed" if not passed else "allowed" if m.allowed else "survived"
    return {"file": m.file, "line": m.line, "verdict": verdict, "seconds": round(seconds, 2)}


def main() -> int:
    # a suite that fails unmutated would report every mutant killed
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        passed, seconds = _suite(_copy(Path(tmp) / "repo"))
    if not passed:
        print(f"the suite fails on the unmutated copy ({seconds:.1f} s)", file=sys.stderr)
        return 2

    todo = mutants()
    counts = {"killed": 0, "survived": 0, "allowed": 0}
    start = perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for m, result in zip(todo, pool.map(run_mutant, todo)):
            counts[result["verdict"]] += 1
            print(json.dumps(result), flush=True)
            if result["verdict"] == "survived":
                print(f"survived: {m.file}:{m.line}: {m.text.splitlines()[0]}", file=sys.stderr)
    print(
        f"{len(todo)} mutants: {counts['killed']} killed, {counts['allowed']} allowed, "
        f"{counts['survived']} survived, {perf_counter() - start:.0f} s "
        f"(baseline suite {seconds:.1f} s)",
        file=sys.stderr,
    )
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
