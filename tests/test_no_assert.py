"""Library code checks its conditions with raises, never a bare assert:
``python -O`` strips assert statements, so a postcondition written as
one would silently stop holding."""

import ast
from pathlib import Path

import repsq

SOURCE = Path(repsq.__file__).resolve().parent


def test_no_assert_statements_in_the_library():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
