"""The brute-force oracle stays an independent truth source: the body of
`oracle.brute_force_reachable`, and of every `oracle.py` function it calls,
names nothing that `oracle.py` imports from `semantics`.  A change cannot
then route the oracle through the engine it is there to check.

No linter ships with the toolchain, so this reads the source with `ast`.
"""

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent.parent / "src" / "interax" / "oracle.py"


def engine_names(tree: ast.AST) -> set[str]:
    """Names bound to the engine under `tree`: each name imported from a
    `semantics` module, and the name an import of that module binds."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_engine = (node.module or "").split(".")[-1] == "semantics"
            out |= {
                a.asname or a.name
                for a in node.names
                if from_engine or a.name == "semantics"
            }
        elif isinstance(node, ast.Import):
            out |= {
                a.asname or a.name.split(".")[0]
                for a in node.names
                if "semantics" in a.name.split(".")
            }
    return out


def engine_uses(source: str, function: str) -> list[str]:
    """The engine names used in the body of `function` or of any module
    function it reaches by name, sorted; annotations are not the body."""
    tree = ast.parse(source)
    imported = engine_names(tree)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo, used = {function}, [function], set()
    while todo:
        for stmt in defs[todo.pop()].body:
            used |= engine_names(stmt)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Name):
                    continue
                if node.id in imported:
                    used.add(node.id)
                elif node.id in defs and node.id not in seen:
                    seen.add(node.id)
                    todo.append(node.id)
    return sorted(used)


def test_checker_finds_direct_helper_and_local_uses():
    source = (
        "from .semantics import GlobalState, explore\n"
        "from . import semantics as sem\n"
        "def helper(s):\n"
        "    return sem.compile_system(s)\n"
        "def clean(s) -> set[GlobalState]:\n"
        "    return {s}\n"
        "def direct(s) -> set[GlobalState]:\n"
        "    return explore(s).states\n"
        "def indirect(s):\n"
        "    return clean(helper(s))\n"
        "def local(s):\n"
        "    from interax.semantics import is_reachable\n"
        "    return is_reachable(s, [])\n"
    )
    assert engine_uses(source, "clean") == []
    assert engine_uses(source, "direct") == ["explore"]
    assert engine_uses(source, "indirect") == ["sem"]
    assert engine_uses(source, "local") == ["is_reachable"]


def test_brute_force_never_names_the_engine():
    source = ORACLE.read_text()
    # the module does use the engine elsewhere, so the check is not vacuous
    assert {"compile_system", "is_reachable"} <= engine_names(ast.parse(source))
    assert engine_uses(source, "brute_force_reachable") == []
