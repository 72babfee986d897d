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


def test_no_unused_imports():
    # an import the module never reads is left over from code that went;
    # the names in __all__ are the package's exports, so they count as read
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 12
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(PACKAGE)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []
