"""Checks on the package source itself."""

import ast
from pathlib import Path

import inhomspec


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly
    root = Path(inhomspec.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
