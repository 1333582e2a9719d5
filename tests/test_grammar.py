"""The package's sources use no grammar newer than Python 3.10, the
oldest version pyproject.toml supports."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bifrac")
                 .glob("*.py"))


def test_the_package_has_sources():
    assert len(SOURCES) >= 7


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    """`ast.parse` with feature_version (3, 10) refuses newer grammar,
    such as `except*`; it does not check which library APIs are used."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
