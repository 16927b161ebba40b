"""Source-level rules for the library package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "repbal").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so library checks must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert lines == [], f"{path.name} uses assert at lines {lines}"
