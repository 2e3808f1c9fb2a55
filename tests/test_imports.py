"""Source hygiene: every name a module of the package imports is used,
and every module parses as the oldest supported Python."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpoly"
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py"))
# __init__.py imports to re-export, so it is left out
MODULES = [name for name in SOURCES if name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_package_has_modules_to_check():
    assert {"core.py", "identities.py", "stirling.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# pyproject.toml's requires-python
PYTHON_FLOOR = (3, 10)


@pytest.mark.parametrize("module", SOURCES)
def test_parses_as_the_python_floor(module):
    ast.parse((PACKAGE / module).read_text(), feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("newer", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",   # 3.11
    "type X = int\n",                                     # 3.12
], ids=["except-star", "type-alias"])
def test_the_floor_check_refuses_newer_syntax(newer):
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=PYTHON_FLOOR)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom fractions import Fraction\n"
                          "from math import comb, factorial\n"
                          "x = comb(4, 2) + os.sep.count('/')\n") == [
        "Fraction", "factorial"]
