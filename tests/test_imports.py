"""No dead imports in ``src/gemkit``: every name a module imports is read
somewhere in that module.  The package's ``__init__.py`` imports to
re-export, so it is left out."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gemkit"


def unread_imports(text: str) -> list[str]:
    """The names the module imports and never reads, in source order.  An
    ``import a.b`` binds ``a``; ``from __future__`` binds nothing."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for _, name in sorted(imported) if name not in read]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_a_dead_import_is_named():
    text = ("from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Iterator, Optional\n"
            "from .core import ColoredGraph as CG, residues\n"
            "def f(g: CG) -> Optional[int]:\n"
            "    from . import checks\n"
            "    return os.sep\n")
    assert unread_imports(text) == ["Iterator", "residues", "checks"]
