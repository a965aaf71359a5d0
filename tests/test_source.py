"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import rto_sim

SOURCES = sorted(Path(rto_sim.__file__).parent.glob("*.py"))


def _parse(source: Path) -> ast.Module:
    return ast.parse(source.read_text(encoding="utf-8"), filename=str(source))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return []


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(source):
    # `python -O` strips asserts, so every runtime check must be an explicit raise
    tree = _parse(source)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{source.name}: assert at lines {lines}"


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_export_is_bound(source):
    # a name left in __all__ after its definition is deleted breaks `import *`
    tree = _parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= set(_bound_names(node))
    missing = [name for name in _exports(tree) if name not in bound]
    assert missing == [], f"{source.name}: __all__ names {missing} are not bound"


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(source):
    # an import kept on purpose (a name bound for callers elsewhere) says so
    text = source.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = _parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exports(tree))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [f"{name} (line {node.lineno})" for name in _bound_names(node) if name not in used]
    assert unused == [], f"{source.name}: unused imports {unused}"
