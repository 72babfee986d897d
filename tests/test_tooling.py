"""Checks over the package source itself."""

import ast
import sys
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


def test_every_top_level_definition_is_named():
    # a function or class that no code under src/, tests/ or perfbench/
    # names outside its own body is left over from code that went; a
    # string naming it counts, as monkeypatch.setattr and __all__ use them
    root = Path(__file__).resolve().parents[1]
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, path.resolve(), node.lineno,
                             node.end_lineno))
    assert len(defs) > 50
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                uses.setdefault(name, []).append((path.resolve(), node.lineno))
    unnamed = [
        f"{path.relative_to(PACKAGE.resolve())}:{first} {name}"
        for name, path, first, last in defs
        if all(p == path and first <= line <= last
               for p, line in uses.get(name, ()))
    ]
    assert unnamed == []


def test_runtime_imports_are_stdlib():
    # the runtime needs nothing beyond the standard library (pyproject's
    # dependencies = []): every absolute import names the package itself
    # or a standard-library module; relative imports stay in the package
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update((name.split(".")[0], path.name) for name in names)
    assert len({top for top, _ in found}) >= 10
    assert sorted(f"{file}: {top}" for top, file in found
                  if top != "flowsentry"
                  and top not in sys.stdlib_module_names) == []


def test_query_caches_stay_out_of_the_pickle():
    # a cache a query stores in an oracle's __dict__, as o.__dict__[name]
    # = ... or o.__dict__.setdefault(name, ...), is refilled after a load;
    # the oracle class's __getstate__ must name it, or the file would
    # carry it and change with the queries asked before a save
    stored, excluded = {}, {}
    for module in ("oracles.py", "kfault.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)):
                target, key = node.value, node.slice
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "setdefault" and node.args):
                target, key = node.func.value, node.args[0]
            else:
                continue
            if (isinstance(target, ast.Attribute)
                    and target.attr == "__dict__"
                    and isinstance(key, ast.Constant)):
                names.add(key.value)
        stored[module] = names
        getstates = [fn for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef)
                     for fn in cls.body
                     if isinstance(fn, ast.FunctionDef)
                     and fn.name == "__getstate__"]
        assert len(getstates) == 1, module
        excluded[module] = {node.value for node in ast.walk(getstates[0])
                            if isinstance(node, ast.Constant)
                            and isinstance(node.value, str)}
    assert stored["oracles.py"] >= {"_residual", "_answers", "_released"}
    assert stored["kfault.py"] >= {"_certificate"}
    assert all(stored[m] <= excluded[m] for m in stored), (stored, excluded)
