"""Every imported name is used, in the package and in the tests, and the
package states no check as an ``assert``.

Static checks with the standard library's ``ast``. ``snlab/__init__.py``
is left out of the first, because it imports names only to re-export them.
``python -O`` strips ``assert`` statements, and the package's checks must
still run under it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "snlab").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names an import binds that no other name in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = ("import os.path\nimport sys as system\nfrom json import dumps, loads\n"
              "system.exit(loads('0'))\n")
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list[int]:
    """The lines of the module's ``assert`` statements."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_check_finds_asserts():
    source = ("def f(x):\n    assert x, 'x'\n    if x:\n"
              "        assert x > 0\n    return 'assert'\n")
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_asserts_in_the_package(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
