"""Every module of the package references each name it imports, parses as
Python 3.10, imports only the standard library and the package itself, and
names the encoding of every file it reads or writes as text.

No linter ships with the toolchain, so this reads the sources with `ast`.
The package `__init__.py` is skipped by the unused-import check: it imports
names to re-export them.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interax"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def foreign_imports(source: str) -> list[str]:
    """Top-level modules the source imports from outside the standard
    library and the package, after parsing it with Python 3.10's grammar
    (a newer construct raises `SyntaxError`)."""
    tree = ast.parse(source, feature_version=(3, 10))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    tops = [m.split(".")[0] for m in modules]
    return [m for m in tops if m not in sys.stdlib_module_names and m != "interax"]


def test_checker_finds_foreign_imports_and_newer_syntax():
    source = (
        "import json\n"
        "import numpy as np\n"
        "from os import path\n"
        "from interax.model import PortId\n"
        "from . import errors\n"
    )
    assert foreign_imports(source) == ["numpy"]
    with pytest.raises(SyntaxError):
        foreign_imports("try:\n    pass\nexcept* ValueError:\n    pass\n")


@pytest.mark.parametrize("module", SOURCES, ids=[p.name for p in SOURCES])
def test_python_310_and_standard_library_only(module):
    assert foreign_imports(module.read_text()) == []


TEXT_FILE_CALLS = {"open", "read_text", "write_text"}


def unnamed_encodings(source: str) -> list[str]:
    """Calls of `open`, `read_text` or `write_text` (as a name or a method)
    that pass no `encoding=`, as source text.  Without one, the file is read
    or written in the locale's encoding, which need not be UTF-8."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in TEXT_FILE_CALLS
        and not any(k.arg == "encoding" for k in node.keywords)
    ]


def test_checker_finds_calls_without_an_encoding():
    source = (
        "from pathlib import Path\n"
        "def f(path, text):\n"
        "    Path(path).write_text(text)\n"
        "    Path(path).write_text(text, encoding='utf-8')\n"
        "    with open(path, encoding='utf-8') as fp, path.open() as fq:\n"
        "        return fp.read() + fq.read() + Path(path).read_text()\n"
    )
    assert unnamed_encodings(source) == [
        "Path(path).write_text(text)", "path.open()", "Path(path).read_text()",
    ]


@pytest.mark.parametrize("module", SOURCES, ids=[p.name for p in SOURCES])
def test_text_files_name_their_encoding(module):
    assert unnamed_encodings(module.read_text(encoding="utf-8")) == []
