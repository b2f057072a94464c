#!/usr/bin/env python3
"""List the statements of ``src/berkline`` that the test suite never runs.

The suite runs in this process under ``sys.settrace`` (and
``threading.settrace`` for the threads it starts).  Every line executed
in a file under the package directory is recorded, and each statement
none of whose own lines ran is printed as ``path:line: source``,
followed by the total.

A statement is an ``ast`` statement other than a docstring, a ``def``,
a ``class``, an import, ``global`` or ``nonlocal``.  Its own lines are
the lines it spans minus those of the statements and ``except`` clauses
nested in it, so a compound statement counts by its header.  Code run
in a child process, as by the CLI tests that spawn one, is not seen.

Usage, from the repository root::

    python scripts/unreached.py [pytest arguments]

With no arguments it runs ``pytest -q tests``.  The exit code is
pytest's.  Only the standard library is used, besides pytest itself.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "berkline"

_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
    ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> list:
    """``(line, own lines)`` of each counted statement of ``source``."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and _is_docstring(body[0]):
            docstrings.add(body[0])
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or node in docstrings:
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, (ast.stmt, ast.excepthandler)):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        out.append((node.lineno, own or {node.lineno}))
    return sorted(out, key=lambda s: s[0])


def collect(run, root) -> dict:
    """Call ``run()`` under a line tracer and return, for each file under
    ``root`` that ran, the set of its lines executed.  The trace
    functions in place before are restored afterwards."""
    root = os.path.join(os.path.realpath(root), "")
    hits, inside = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(root)
        if not inside[name]:
            return None
        hits.setdefault(name, set())
        return local

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return {os.path.realpath(name): lines for name, lines in hits.items()}


def unreached(root, hits: dict):
    """``(missed, total)``: each ``(path, line, source)`` statement of the
    ``.py`` files under ``root`` whose own lines are not in ``hits``, and
    the number of statements counted."""
    missed, total = [], 0
    for path in sorted(Path(root).resolve().rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(os.path.realpath(path), set())
        for line, own in statements(source):
            total += 1
            if own.isdisjoint(ran):
                missed.append((path, line, lines[line - 1].strip()))
    return missed, total


def main(argv=None) -> int:
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or ["-q", str(ROOT / "tests")]
    code = []
    hits = collect(lambda: code.append(pytest.main(args)), SRC)
    missed, total = unreached(SRC, hits)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} of {total} statements never ran")
    return int(code[0])


if __name__ == "__main__":
    sys.exit(main())
