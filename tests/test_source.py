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


def test_no_float_calls_outside_quadnum_float():
    # no float enters a mathematical decision: the only float(...) calls in
    # the package are QuadNum.__float__ rendering its own value
    root = Path(inhomspec.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "QuadNum"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__float__"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and id(node) not in allowed
        ]
    assert found == []
