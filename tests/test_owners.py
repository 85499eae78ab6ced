"""The engine's mixed-radix format has one owner: no module of the package
but `semantics.py` reads an attribute named `weights` or `radices`.  Other
modules translate states through `Engine.pack`, `names` and `moved`.

No linter ships with the toolchain, so this reads the sources with `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interax"
OUTSIDE = sorted(p for p in PACKAGE.glob("*.py") if p.name != "semantics.py")
CODEC = {"weights", "radices"}


def codec_reads(source: str) -> list[str]:
    """`value.attr` expressions reading a codec attribute, as sorted
    source text."""
    return sorted(
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in CODEC
        and isinstance(node.ctx, ast.Load)
    )


def test_checker_finds_only_codec_reads():
    source = (
        "weights = [1]\n"
        "def f(eng, radices):\n"
        "    eng.weights = weights\n"
        "    return eng.weights[0] * radices[0] + len(eng.engine.radices)\n"
    )
    assert codec_reads(source) == ["eng.engine.radices", "eng.weights"]


@pytest.mark.parametrize("module", OUTSIDE, ids=[p.name for p in OUTSIDE])
def test_only_semantics_reads_the_codec(module):
    assert codec_reads(module.read_text()) == []
