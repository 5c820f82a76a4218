"""List the statements of ``src/rpemsim`` that a pytest run never executes.

``coverage`` is not a dependency, so this runs pytest in-process under a
``sys.settrace``/``threading.settrace`` hook that records the lines run in
the package's own files, then prints ``file:line`` for each statement that
never ran::

    python3 tests/linetrace.py [pytest args]

It counts only statements inside functions: module-level statements and
class bodies run at import. Docstrings and ``global`` declarations, which
emit no line event, are skipped. A simple statement
counts as run when any of its lines ran; a compound one (``if``, ``for``,
``with``, ...) when any line of its header ran, up to the first body line,
so a multi-line ``if (`` condition counts from whichever line the
interpreter reports. The exit status is pytest's.

A function is traced line by line only until each of its lines has been
recorded; later calls of it run with no line hook. Every call still goes
through the call hook, so a run costs a few times a plain one.

pytest does not collect this module; tests import it by name, as in
``import linetrace``.
"""

import ast
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "rpemsim"


@contextmanager
def recording():
    """Record the ``(filename, line)`` pairs run in the package while the
    block runs, in this thread and in threads it starts."""
    prefix = str(PACKAGE)
    hits: set[tuple[str, int]] = set()
    hooks: dict = {}  # code object -> its local hook, None once nothing is left to record

    def hook(code):
        """The local hook of ``code``, or None outside the package. It
        records each line of ``code`` once, then turns off the line events
        of the frame and of every later call, which could record nothing
        new; a line another code object recorded first, such as the
        ``def`` line, counts as recorded."""
        name = code.co_filename
        if not name.startswith(prefix):
            return None
        rest = {
            line for _, _, line in code.co_lines()
            if line is not None and (name, line) not in hits
        }

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                if line in rest:
                    rest.discard(line)
                    hits.add((name, line))
                    if not rest:
                        frame.f_trace_lines = False
                        hooks[code] = None
            return local

        return local if rest else None

    def tracer(frame, event, arg):
        code = frame.f_code
        try:
            return hooks[code]
        except KeyError:
            local = hooks[code] = hook(code)
            return local

    old, old_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield hits
    finally:
        sys.settrace(old)
        threading.settrace(old_threads)


def _is_docstring(body: list[ast.stmt], stmt: ast.stmt) -> bool:
    return (stmt is body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def _lines(stmt: ast.stmt) -> range:
    """The lines whose line event means ``stmt`` ran."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if not body:
        return range(start, stmt.end_lineno + 1)
    return range(start, max(start, body[0].lineno - 1) + 1)


def statements(path: Path) -> list[tuple[int, range]]:
    """``(line, lines that count)`` for each statement of ``path`` that runs
    inside a function."""
    found = []

    def visit(body: list[ast.stmt], in_function: bool) -> None:
        for stmt in body:
            if in_function and not (_is_docstring(body, stmt) or isinstance(stmt, ast.Global)):
                found.append((stmt.lineno, _lines(stmt)))
            nested = in_function or isinstance(stmt, ast.FunctionDef)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), nested)
            for handler in getattr(stmt, "handlers", ()):
                visit(handler.body, nested)

    visit(ast.parse(path.read_text(), str(path)).body, False)
    return found


def never_run(hits: set[tuple[str, int]], paths: list[Path]) -> list[str]:
    """``file:line`` of each statement in ``paths`` that no recorded line
    ran, the file relative to the repository."""
    missed = []
    for path in paths:
        name = str(path)
        for line, lines in statements(path):
            if not any((name, k) in hits for k in lines):
                missed.append(f"{path.relative_to(REPO)}:{line}")
    return missed


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    with recording() as hits:
        status = pytest.main(args)
    missed = never_run(hits, sorted(PACKAGE.glob("*.py")))
    print(f"\nstatements of {PACKAGE.relative_to(REPO)} that never ran: {len(missed)}")
    for entry in missed:
        print(entry)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
