"""Source hygiene: every name a module of the package imports is used,
every module-level private name is read, every exported def or class has
a reader outside the tests, and every module parses as the oldest
supported Python."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import qpoly

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpoly"
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


def _reads(node: ast.AST) -> list[str]:
    """The names read under node: loaded names, attributes and the names
    that `from ... import` brings in."""
    return ([n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)]
            + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]
            + [alias.name for n in ast.walk(node)
               if isinstance(n, ast.ImportFrom) for alias in n.names])


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module:name' for each module-level private name (_x: a def, class
    or assignment) of sources that no code outside its own definition
    reads, in source order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            own = Counter(_reads(node))
            unread += ["%s:%s" % (module, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and reads[name] == own[name]]
    return unread


def unread_public_names(sources: dict[str, str], texts: list[str],
                        exported: set[str]) -> list[str]:
    """'module:name' for each module-level def or class of sources named in
    exported that no code of sources outside its own definition reads and
    no text names as a word, in source order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    named = {word for text in texts for word in re.findall(r"\w+", text)}
    return ["%s:%s" % (module, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name in exported and node.name not in named
            and reads[node.name] == Counter(_reads(node))[node.name]]


def test_every_exported_def_has_a_reader():
    # the demos, the benchmark (whose TARGETS name what they trace) and the
    # README are read as text
    texts = [path.read_text(encoding="utf-8") for path in
             sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").rglob("*.py"))
             + [ROOT / "README.md"]]
    assert len(texts) > 5
    assert unread_public_names({module: (PACKAGE / module).read_text()
                                for module in SOURCES},
                               texts, set(qpoly.__all__)) == []


def test_the_check_finds_an_unread_exported_def():
    assert unread_public_names({
        "a.py": "def used():\n    pass\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n"
                "def documented():\n    pass\n\n"
                "class Orphan:\n    pass\n\n"
                "def unexported():\n    pass\n\n"
                "LIMIT = 1\n__all__ = ['used', 'recursive', 'documented',"
                " 'Orphan', 'LIMIT']\n",
        "b.py": "from a import used\n",
    }, ["`documented` is named here", "# Orphans"],
        {"used", "recursive", "documented", "Orphan", "LIMIT"}) == [
        "a.py:recursive", "a.py:Orphan"]


def test_every_private_name_is_read():
    assert unread_private_names({module: (PACKAGE / module).read_text()
                                 for module in SOURCES}) == []


def test_the_check_finds_an_unread_private_name():
    assert unread_private_names({
        "a.py": "def _used():\n    pass\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "_LIMIT, _SHOWN = 1, 2\n_typed: int = 3\n"
                "class _Seen:\n    pass\n__all__ = []\n",
        "b.py": "from a import _used\nimport a\n"
                "x = _used() or a._SHOWN or _Seen\n",
    }) == ["a.py:_recursive", "a.py:_LIMIT", "a.py:_typed"]


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
