"""The oracles stay a second route: ``tests/oracles.py`` imports nothing from accelpair."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_no_accelpair_module():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and [m for m in imported if m.split(".")[0] in ("accelpair", "")] == []
