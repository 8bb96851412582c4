"""Run tier-1 in-process under a line trace and list every statement of a
function or method body in ``src/hypertoric`` that no test executed.

The statements are read with ``ast``: every statement inside a function
or method, nested ones included, except the docstring; module-level and
class-level lines are left out, since they run on import.  The trace
(``sys.settrace`` and ``threading.settrace``) records line events only
in files under ``src/hypertoric``.  Hypothesis runs with seed 0, so two
runs draw the same examples.

    python tests/line_trace.py [pytest args]

Exits 1 and prints ``module:line`` for each unreached statement, or with
pytest's own status when a test fails.
"""

import ast
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypertoric"


def body_statements(path: Path) -> set[int]:
    """The first line of every statement in a function or method body of
    the module at ``path``, docstrings left out."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
            lines.update(stmt.lineno for top in body for stmt in ast.walk(top) if isinstance(stmt, ast.stmt))
    return lines


def main(args) -> int:
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    start = time.perf_counter()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status:
        return status
    unreached, checked = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = body_statements(path)
        checked += len(lines)
        unreached += ["%s:%d" % (path.stem, line) for line in sorted(lines - hits.get(str(path), set()))]
    print("%d statements in function bodies of src/hypertoric, %d unreached, traced run %.0f s"
          % (checked, len(unreached), time.perf_counter() - start))
    for where in unreached:
        print("unreached:", where)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
