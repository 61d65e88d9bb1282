"""Statement coverage of src/homlie under the tier-1 tests, against a list.

Run from the repository root, with the test extras installed:

    python tools/linecov.py

The tier-1 suite runs in this process (`pytest.main`, always the `ci`
Hypothesis profile and the same arguments, no pytest cache) under a stdlib
`sys.settrace` tracer that records the lines of src/homlie it runs.
A statement inside a function body is reached when a line event fires on
one of its own lines (for a compound statement, its header); docstrings
and other bare constants run no code and are not counted.  Tests that run
the library in a subprocess count for nothing.

The statements never reached must be exactly those named in
tools/linecov_unreached.txt, one per line as "file<TAB>function<TAB>source",
the source being the statement's first line stripped.  The tool exits 1
when the tests fail, when an unlisted statement goes unreached, or when a
listed one is reached or gone, and prints the lines to add (+) and to
remove (-).  It writes nothing into the checkout.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "homlie"
LISTED = ROOT / "tools" / "linecov_unreached.txt"


def statements(path: Path) -> list:
    """(lines, function, source) of each statement in a function body of
    the file: `lines` are the statement's own lines (a compound
    statement's header, up to its first nested statement)."""
    text = path.read_text(encoding="utf-8").splitlines()
    out = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function:
                    out.append((range(child.lineno, child.lineno + 1), scope,
                                text[child.lineno - 1].strip()))
                visit(child, f"{scope}.{child.name}" if scope else child.name,
                      not isinstance(child, ast.ClassDef))
                continue
            if in_function and isinstance(child, (ast.stmt, ast.excepthandler)):
                if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                    continue  # a docstring or `...` runs no code
                nested = [n.lineno for n in ast.iter_child_nodes(child)
                          if isinstance(n, (ast.stmt, ast.excepthandler))]
                end = min(nested) - 1 if nested else child.end_lineno
                if not isinstance(child, ast.Try):  # `try:` itself runs no code
                    out.append((range(child.lineno, max(end, child.lineno) + 1), scope,
                                text[child.lineno - 1].strip()))
            visit(child, scope, in_function)

    visit(ast.parse("\n".join(text)), "", False)
    return out


def run_tests() -> tuple:
    """The pytest exit status and the {file: lines run} of src/homlie."""
    prefix = str(SOURCE) + os.sep
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    os.environ["HYPOTHESIS_PROFILE"] = "ci"
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return status, {Path(name).name: lines for name, lines in seen.items()}


def unreached(seen: dict) -> Counter:
    out = Counter()
    for path in sorted(SOURCE.glob("*.py")):
        lines = seen.get(path.name, set())
        for own, function, source in statements(path):
            if not lines.intersection(own):
                out[f"{path.name}\t{function}\t{source}"] += 1
    return out


def main() -> int:
    status, seen = run_tests()
    if status != 0:
        print(f"linecov: the tests failed (pytest exit status {status})")
        return 1
    found = unreached(seen)
    listed = Counter(line for line in LISTED.read_text(encoding="utf-8").splitlines() if line)
    print(f"linecov: {sum(found.values())} statements unreached, {sum(listed.values())} listed")
    if found == listed:
        return 0
    for line in sorted((found - listed).elements()):
        print(f"+ {line}")
    for line in sorted((listed - found).elements()):
        print(f"- {line}")
    print(f"linecov: update {LISTED.relative_to(ROOT)} or the tests ({LISTED.name}: + unreached "
          "and unlisted, - listed but reached or gone)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
