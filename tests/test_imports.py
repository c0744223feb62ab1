"""Every imported name is used, in the package and in the tests, and is
imported from the module that defines it, every private top-level function
and class of the package is read, every import of the package is at
module top level, the package states no check as an ``assert`` and caches
nothing with ``functools.cached_property``, and every name the README's
entry points list exists.

Static checks with the standard library's ``ast``. ``snlab/__init__.py``
is left out of the first, because it imports names only to re-export them,
and ``from snlab import`` is left out of the second for the same reason.
``python -O`` strips ``assert`` statements, and the package's checks must
still run under it. A backticked name in a "Useful entry points" bullet
must be an attribute of that bullet's module, of a class defined there, or
of ``snlab``.
"""

from __future__ import annotations

import ast
import importlib
import re
from operator import attrgetter
from pathlib import Path

import pytest

import snlab

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


def top_level_names(source: str) -> set[str]:
    """The names a module defines at top level, by a def, a class or an
    assignment."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name))
    return names


def borrowed_imports(source: str, defined: dict[str, set[str]]) -> list[str]:
    """The ``X.name`` of each ``from snlab.X import name`` (``from .X`` in
    the package) whose ``name`` is not in ``defined[X]``, the top-level
    names of ``snlab.X``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = ("snlab." if node.level else "") + node.module
            if module.startswith("snlab."):
                owner = module.removeprefix("snlab.")
                found += [f"{owner}.{a.name}" for a in node.names
                          if a.name not in defined[owner]]
    return found


def test_the_check_finds_borrowed_imports():
    defined = {"graphs": top_level_names(
        "from .errors import ParseError\nimport os\nEdge = tuple[int, int]\n"
        "A, (B, C) = 1, (2, 3)\nLIMIT: int = 8\nclass Graph:\n    size = 1\n"
        "def cotree_edges(g):\n    inner = 0\n    return inner\n"),
        "balance": {"is_balanced"}}
    assert defined["graphs"] == {"Edge", "A", "B", "C", "LIMIT", "Graph",
                                 "cotree_edges"}
    source = ("from snlab import cotree_edges\n"
              "from snlab.graphs import Edge, Graph, LIMIT, ParseError, os\n"
              "from .balance import cotree_edges, is_balanced\n"
              "def f():\n    from snlab.graphs import size, inner, A, C\n")
    assert borrowed_imports(source, defined) == [
        "graphs.ParseError", "graphs.os", "balance.cotree_edges",
        "graphs.size", "graphs.inner"]


@pytest.mark.parametrize("path", PACKAGE + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_names_are_imported_from_their_module(path):
    defined = {p.stem: top_level_names(p.read_text(encoding="utf-8"))
               for p in PACKAGE}
    assert borrowed_imports(path.read_text(encoding="utf-8"), defined) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """The private top-level functions and classes of the modules
    ``sources`` that no code of them reads, as a name or an attribute,
    outside their own definition."""
    defined, read = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            owner = None
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_")):
                owner = stmt.name
                defined.add(owner)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    read.add(name)
    return sorted(defined - read)


def test_the_check_finds_unread_private_names():
    sources = ["def _dead():\n    return _used()\n"
               "def _used():\n    return 1\n"
               "def _recursive(n):\n    return _recursive(n - 1)\n"
               "class _Box:\n    pass\n"
               "def _cached(f):\n    return f\n",
               "import m\n@m._cached\ndef public():\n    return _Box\n"]
    assert unread_private_names(sources) == ["_dead", "_recursive"]


def test_no_unread_private_names_in_the_package():
    assert unread_private_names(
        [p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def nested_import_lines(source: str) -> list[int]:
    """The lines of the module's imports that are not top-level statements."""
    tree = ast.parse(source)
    top = set(tree.body)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top]


def test_the_check_finds_nested_imports():
    source = ("import os\nfrom .graphs import Graph\nif os.name:\n"
              "    import sys\nclass A:\n    def f(self):\n"
              "        from .generation import canonical_form\n"
              "        return 'import json'\n")
    assert nested_import_lines(source) == [4, 7]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_at_top_level_in_the_package(path):
    """A function-level import hides an import cycle between modules."""
    assert nested_import_lines(path.read_text(encoding="utf-8")) == []


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


def cached_property_lines(source: str) -> list[int]:
    """The lines that import ``functools.cached_property`` or read it off
    ``functools``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for a in node.names if a.name == "cached_property"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cached_property"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            lines.append(node.lineno)
    return lines


def test_the_check_finds_cached_property():
    source = ("import functools\nfrom functools import lru_cache, cached_property\n"
              "class A:\n    @functools.cached_property\n    def x(self):\n"
              "        return 'cached_property'\n")
    assert cached_property_lines(source) == [2, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_cached_property_in_the_package(path):
    """It takes a lock on every first access; ``graphs._cached`` does not."""
    assert cached_property_lines(path.read_text(encoding="utf-8")) == []


def missing_readme_names(readme: str) -> list[str]:
    """The backticked names of the "Useful entry points" bullets that are
    attributes neither of the bullet's module (its first backticked name),
    nor of a class defined there, nor of ``snlab``."""
    section = readme.split("Useful entry points", 1)[1].split("\n## ", 1)[0]
    missing = []
    for bullet in section.split("\n- ")[1:]:
        module_name, *names = [name for name in re.findall(r"`([^`]*)`", bullet)
                               if re.fullmatch(r"[A-Za-z_][\w.]*", name)]
        module = importlib.import_module(module_name)
        roots = [module, snlab] + [
            c for c in vars(module).values()
            if isinstance(c, type) and c.__module__ == module.__name__]
        for name in names:
            if not any(resolves(root, name) for root in roots):
                missing.append(name)
    return missing


def resolves(root: object, dotted: str) -> bool:
    try:
        attrgetter(dotted)(root)
    except AttributeError:
        return False
    return True


def test_the_check_finds_unknown_readme_names():
    readme = ("Useful entry points, by module:\n\n"
              "- `snlab.linalg` — `rank` and `nullity` (`BasicSubgraph.order`,\n"
              "  `x + 1`, `is_balanced`).\n- `snlab.graphs` — `Graph.rank`.\n"
              "\n## Command line\n\n`rank`\n")
    assert missing_readme_names(readme) == ["rank", "Graph.rank"]


def test_readme_names_exist():
    assert missing_readme_names((ROOT / "README.md").read_text(encoding="utf-8")) == []
