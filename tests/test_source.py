"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import rpemsim

PACKAGE = Path(rpemsim.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so runtime checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
