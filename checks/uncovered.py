"""Statements of src/evfaraday that no tier-1 test executes.

Runs the tier-1 suite (tests/) in this process under sys.settrace,
recording only the lines of files under src/evfaraday, and prints one
line, path:line: source, for every statement that never ran.  Docstrings,
def and class lines, imports and statements that compile to nothing
(global, nonlocal) are not reported; neither is a try header, whose body
is reported statement by statement.  A package's __main__.py and the body
of an `if __name__ == "__main__":` block run only as a program, in a
process the tracer does not follow, and are not reported either.
pytest's output is shown only when the suite fails.  Uses only the
standard library and pytest.

    python checks/uncovered.py

Exit status: 0 when every statement ran, 1 when some did not, and
pytest's own status when the suite fails.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "evfaraday")

# statements with no line of their own to run, or nothing to run at all
_NOT_REPORTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
                 ast.Try)


def trace_lines(root: str, run):
    """Call run() with every line executed in a file under root recorded;
    returns ({real path: set of line numbers}, run's result)."""
    root = os.path.realpath(root) + os.sep
    executed: dict[str, set[int]] = {}
    # the line set of each code file name, None outside root
    known: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            path = os.path.realpath(name)
            known[name] = (executed.setdefault(path, set())
                           if path.startswith(root) else None)
        lines = known[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    # a run traced from inside another trace hands it back afterwards
    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return executed, result


def _skipped(tree: ast.Module) -> set[int]:
    """ids of the docstrings of the module, its classes and defs, and of
    every node of an `if __name__ == "__main__":` block."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first))
        elif (isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"):
            found.update(id(inner) for inner in ast.walk(node))
    return found


def statements(source: str) -> dict[int, range]:
    """{first line: lines of its own} of every reported statement: a
    compound statement owns the lines of its header, a simple one all of
    its lines."""
    tree = ast.parse(source)
    skipped = _skipped(tree)
    found = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in skipped
                or isinstance(node, _NOT_REPORTED)):
            continue
        body = getattr(node, "body", None)
        end = (body[0].lineno - 1 if isinstance(body, list) and body
               else node.end_lineno)
        found[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return found


def uncovered(root: str, executed: dict[str, set[int]]) -> list[str]:
    """path:line: source of every reported statement of the .py files
    under root none of whose own lines was executed, sorted by path and
    line; paths are relative to root's parent."""
    report = []
    for base, _, names in sorted(os.walk(root)):
        for name in sorted(n for n in names
                           if n.endswith(".py") and n != "__main__.py"):
            path = os.path.realpath(os.path.join(base, name))
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            lines = source.splitlines()
            ran = executed.get(path, set())
            shown = os.path.relpath(path, os.path.dirname(
                os.path.realpath(root)))
            for first, own in sorted(statements(source).items()):
                if ran.isdisjoint(own):
                    report.append(f"{shown}:{first}: {lines[first - 1]}")
    return report


def main() -> int:
    import pytest

    # as the tier-1 command sets it, for the tests' subprocesses too
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    # pytest writes to file descriptor 1, which is sent to a log meanwhile
    with tempfile.TemporaryFile() as log:
        sys.stdout.flush()
        stdout = os.dup(1)
        os.dup2(log.fileno(), 1)
        try:
            executed, status = trace_lines(PACKAGE, lambda: pytest.main(
                ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]))
        finally:
            sys.stdout.flush()
            os.dup2(stdout, 1)
            os.close(stdout)
        if status != 0:
            log.seek(0)
            sys.stderr.write(log.read().decode(errors="replace"))
            return int(status)
    report = uncovered(PACKAGE, executed)
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
