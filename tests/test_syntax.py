"""Every Python source in the repository parses under the 3.10 grammar,
the oldest Python that pyproject.toml admits."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src", "tests", "tools", "demos", "bench")
    for path in (ROOT / folder).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_the_source_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_sources_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {
        "src", "tests", "tools", "demos", "bench"
    }
