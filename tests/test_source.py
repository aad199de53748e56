"""Checks on the package source itself."""

import ast
import importlib.util
from pathlib import Path

import inhomspec
from inhomspec.quadfield import QuadNum


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


def test_bench_tracer_names_exist():
    # bench/tracing.py rebinds these names for a traced run (--trace 1), so a
    # refactor that drops one of them must fail here too
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{modname}.{name}" for modname, name in tracing.SPANNED
        if not callable(getattr(importlib.import_module(f"inhomspec.{modname}"), name, None))
    ]
    missing += [
        f"QuadNum.{name}" for names in tracing.QUADNUM_KINDS.values()
        for name in names if name not in QuadNum.__dict__
    ]
    assert missing == []


def test_code_line_counter_on_an_inline_source():
    from code_lines import code_lines

    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class C:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)

    async def g(self):
        'single-quoted docstring'
        pass
'''
    # import, class, the two lines of x, def f, the return's two lines,
    # async def and pass
    assert code_lines(source) == 9
    assert code_lines("") == 0
