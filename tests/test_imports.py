"""Source hygiene: every name a module of the package imports is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpoly"
# __init__.py imports to re-export, so it is left out
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


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


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom fractions import Fraction\n"
                          "from math import comb, factorial\n"
                          "x = comb(4, 2) + os.sep.count('/')\n") == [
        "Fraction", "factorial"]
