"""Mutation check: does some test notice when a guard is gone or a bound moves?

Run from anywhere, with the standard library and the test extra installed:

    python3 tests/mutants.py

There are two kinds of mutant, each in file and line order:

- *raise*: one per ``raise`` statement of ``src/spherebundles/*.py``, which
  is replaced by ``pass``;
- *flip*: one per comparison operator of ``complexes.py``, ``handles.py``,
  ``moves.py`` and ``stacked.py``, which is swapped with its neighbour:
  ``<`` with ``<=``, ``>`` with ``>=``, ``==`` with ``!=``.

The raise mutants run first.  Each mutant is written into its own copy of
the repository, and the tier-1 suite runs there, stopping at the first
failure, without the slow acceptance 03; two suites run at once.  A mutant
is *killed* when the suite fails, *survived* when it passes, and *allowed*
when it passes but is on the allow-list below.

One JSON verdict per mutant goes to stdout, in mutant order, and a summary
to stderr.  The exit status is 1 if any mutant survives, and 2 if the suite
fails on the unmutated copy.  The file is not collected by pytest.
"""

from __future__ import annotations

import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
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

FLIP_FILES = ("complexes.py", "handles.py", "moves.py", "stacked.py")
FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}

# (file, a fragment of the mutant's label): why no test can tell it apart.
# A raise is labelled "function: statement", a flip "function: comparison -> mutated".
ALLOWED = {
    ("verify.py", "does not carry facets onto facets"):
        "are_isomorphic's witness self-check: the search only completes mappings "
        "that carry every facet onto a facet",
    ("handles.py", "reduced pairing"):
        "two_stack_reduction's distance self-check: the reduction keeps every "
        "matched distance at least three",
    ("complexes.py", "min(vertices) >= 1 -> min(vertices) > 1"):
        "a whole-list pass that fails only sends valid input to _scan, which finds "
        "no fault: a least label of 1 is valid either way",
}


@dataclass(frozen=True)
class Mutant:
    """Replace the text from (line, col) to (end_line, end_col) by ``new``;
    lines count from 1 and columns, in characters, from 0."""

    kind: str
    file: str
    line: int
    end_line: int
    col: int
    end_col: int
    new: str
    label: str

    @property
    def allowed(self) -> bool:
        return any(file == self.file and fragment in self.label for file, fragment in ALLOWED)


def _functions(tree: ast.AST) -> dict[ast.AST, str]:
    """Each node mapped to the dotted name of the function or class around it."""
    names: dict[ast.AST, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            names[child] = inner
            visit(child, inner)

    visit(tree, "")
    return names


def _char_col(lines: list[str], line: int, col: int) -> int:
    # ast counts columns in UTF-8 bytes
    return len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))


def mutants() -> list[Mutant]:
    """Every raise mutant of the package, then every flip mutant."""
    raises, flips = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        tree = ast.parse(source)
        where = _functions(tree)
        nodes = sorted(
            (n for n in ast.walk(tree) if isinstance(n, (ast.Raise, ast.Compare))),
            key=lambda n: (n.lineno, n.col_offset),
        )
        ops = [
            t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type == tokenize.OP
        ]
        for node in nodes:
            text = ast.get_source_segment(source, node)
            if isinstance(node, ast.Raise):
                raises.append(Mutant(
                    "raise", path.name, node.lineno, node.end_lineno,
                    _char_col(lines, node.lineno, node.col_offset),
                    _char_col(lines, node.end_lineno, node.end_col_offset),
                    "pass", f"{where[node]}: {text}",
                ))
                continue
            if path.name not in FLIP_FILES:
                continue
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if type(op) not in FLIPS:
                    continue
                old, new = FLIPS[type(op)]
                before, after = operands[k], operands[k + 1]
                start = (before.end_lineno, _char_col(lines, before.end_lineno, before.end_col_offset))
                stop = (after.lineno, _char_col(lines, after.lineno, after.col_offset))
                (tok,) = [t for t in ops if start <= t.start and t.end <= stop and t.string == old]
                # the comparison as the mutant reads it
                rows = text.splitlines(keepends=True)[: tok.start[0] - node.lineno]
                at = sum(map(len, rows)) + tok.start[1]
                if not rows:
                    at -= _char_col(lines, node.lineno, node.col_offset)
                mutated = text[:at] + new + text[at + len(old) :]
                flips.append(Mutant(
                    "flip", path.name, tok.start[0], tok.end[0], tok.start[1], tok.end[1], new,
                    f"{where[node]}: {' '.join(text.split())} -> {' '.join(mutated.split())}",
                ))
    return raises + flips


def mutate(source: str, m: Mutant) -> str:
    """``source`` with the text that ``m`` names replaced."""
    lines = source.splitlines(keepends=True)
    first, last = lines[m.line - 1], lines[m.end_line - 1]
    lines[m.line - 1 : m.end_line] = [first[: m.col] + m.new + last[m.end_col :]]
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
    return {
        "kind": m.kind, "file": m.file, "line": m.line, "mutant": m.label,
        "verdict": verdict, "seconds": round(seconds, 2),
    }


def main() -> int:
    # a suite that fails unmutated would report every mutant killed
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        passed, seconds = _suite(_copy(Path(tmp) / "repo"))
    if not passed:
        print(f"the suite fails on the unmutated copy ({seconds:.1f} s)", file=sys.stderr)
        return 2

    todo = mutants()
    counts = {kind: {"killed": 0, "survived": 0, "allowed": 0} for kind in ("raise", "flip")}
    start = perf_counter()
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for m, result in zip(todo, pool.map(run_mutant, todo)):
            counts[m.kind][result["verdict"]] += 1
            print(json.dumps(result), flush=True)
            if result["verdict"] == "survived":
                print(f"survived: {m.file}:{m.line}: {m.label.splitlines()[0]}", file=sys.stderr)
    for kind, c in counts.items():
        print(
            f"{sum(c.values())} {kind} mutants: {c['killed']} killed, {c['allowed']} allowed, "
            f"{c['survived']} survived",
            file=sys.stderr,
        )
    print(f"{perf_counter() - start:.0f} s (baseline suite {seconds:.1f} s)", file=sys.stderr)
    return 1 if any(c["survived"] for c in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
