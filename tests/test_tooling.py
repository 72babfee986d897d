"""Checks over the package source itself."""

import ast
from pathlib import Path

import flowsentry

PACKAGE = Path(flowsentry.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # would not be checked there; the package raises instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "oracles.py" in sources
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
