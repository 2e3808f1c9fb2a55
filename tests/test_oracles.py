"""tests/oracles.py is the outside reference: it imports nothing of qpoly."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_nothing_of_the_package():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) would reach into the package too
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports found: the walk is broken"
    assert not [name for name in imported
                if name.split(".")[0] in ("qpoly", "")], imported
