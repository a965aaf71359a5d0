"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import rto_sim

SOURCES = sorted(Path(rto_sim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(source):
    # `python -O` strips asserts, so every runtime check must be an explicit raise
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{source.name}: assert at lines {lines}"
