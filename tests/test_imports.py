"""Every module of the package references each name it imports.

No linter ships with the toolchain, so this reads the sources with `ast`.
The package `__init__.py` is skipped: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interax"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.
    Quoted annotations count as references."""
    tree = ast.parse(source)
    imported = []
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names(ast.parse(ann.value, mode="eval"))
    return [name for name in imported if name not in used]


def test_checker_finds_only_the_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: 'Mapping') -> Sequence:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["j"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
