"""Ownership checks, read from the sources with `ast` (no linter ships
with the toolchain).

The engine's mixed-radix format has one owner: no module of the package
but `semantics.py` reads an attribute named `weights` or `radices`.  Other
modules translate states through `Engine.pack`, `names` and `moved`.

An engine has one builder: `Engine(...)` is called only inside
`semantics.compile_system`, which validates the system first.  The engine
build relies on that validation (every port a transition uses is used by
some interaction), so no other caller may bypass it.

A value's names are listed once per kind, and the refusals read those
lists: `refuse_non_strings` is called only by the model gate
`model.refuse_untyped` (over a model's or system's names),
`turing.canonicalize_dtm` and `formats.serialize_dtm` (over
`turing._names`), `formats.serialize_predicates` and `topology.export_dot`
(over a graph's names), and `_non_port_ids` only by the validation gate
`model._typing_findings` and the refusal gate.

Still rules are skipped in one place: only `Engine.search` reads an
attribute named `still`, the engine's rules that can never move a state.
It counts each enabled one as one transition without firing it, while
the per-state calls (`successors`, `step`, `replay_trace`) fire every rule
through `Engine.fire`.

Every search keeps one container: `Engine.search` makes no `.add` call,
so `explore` and `is_reachable` read the same dict of parent links and no
caller gets a set of codes of its own.

The per-state path builds no generator: no generator expression occurs in
`Engine.search` or in a function nested in `Engine.search` or
`is_reachable`, whose `matches` tests almost every state the search
discovers.  A generator there costs a frame per state; plain loops that
break at the first failing constraint give the same answers.

A clean validation verdict has one owner: only `model.validate_system`
reads or writes the attribute that remembers it on a system object, so no
caller can skip validation by setting it or trust it where a copy lacks it.

The engine has one firing rule: a rule table is subscripted only in
`Engine.__init__`, which fills the tables, and in `Engine.fire`, so no
caller inlines a second firing rule; `step` names its blockers by firing
each participant alone.

A mask's set bits are walked in one place: only `semantics._set_bits`
takes a lowest set bit (`x & -x`), and both `Engine.enabled` and the
search's still/moving split read their rules off it.

`formats` is the only writer of documents: no module of the package calls
`json.dump` or `json.dumps`, and only `formats` imports `json.encoder` (or
any name from it), whose `encode_basestring_ascii` quotes every string.
`formats.serialize_system` writes the system document and
`formats.dump_document` writes all the others, so the bytes of every
document have one owner.

Every public function has a caller: each function in the package's
`__all__` is called in `src/` outside its own definition, or in `bench/`,
or is on an allow-list that gives the reason it has no such caller.
"""

import ast
from pathlib import Path
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "interax"
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
OUTSIDE = sorted(p for p in PACKAGE.glob("*.py") if p.name != "semantics.py")
SOURCES = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
)
CODEC = {"weights", "radices"}
JSON_WRITERS = {"dump", "dumps"}
MEMO = "_validated"
TABLE_SOURCES = {"parts", "ports"}


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


def places(source: str, hit: Callable[[ast.AST], bool]) -> list[str]:
    """Where a node that `hit` accepts occurs: the dotted name of each one's
    enclosing functions and classes ("" at module level), sorted."""
    out = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if hit(child):
                out.append(where)
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(out)


def callers(source: str, name: str) -> list[str]:
    """Where `name(...)` or `x.name(...)` is called."""
    return places(
        source,
        lambda node: isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)),
    )


def readers(source: str, attr: str) -> list[str]:
    """Where `x.attr` is read."""
    return places(
        source,
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.ctx, ast.Load),
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


def test_checker_finds_every_engine_call():
    source = (
        "e = Engine(s)\n"
        "def build(s) -> Engine:\n"
        "    return [semantics.Engine(x) for x in s]\n"
        "class Box:\n"
        "    kind = Engine\n"
        "    def make(self):\n"
        "        def inner():\n"
        "            return f(Engine(self.s))\n"
        "        return inner\n"
    )
    assert callers(source, "Engine") == ["", "Box.make.inner", "build"]


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_only_compile_system_builds_an_engine(path):
    expected = ["compile_system"] if path == PACKAGE / "semantics.py" else []
    assert callers(path.read_text(), "Engine") == expected


def test_checker_finds_every_attribute_read():
    source = (
        "def build(eng):\n"
        "    eng.still = frozenset()\n"
        "    still = 1\n"
        "class Engine:\n"
        "    def search(self):\n"
        "        rules, still = self.rules, self.still\n"
        "        return [k for k in rules if k in self.engine.still]\n"
        "    def fire(self, still):\n"
        "        return getattr(self, 'still'), still\n"
        "    stillness = Engine.stillness\n"
    )
    assert readers(source, "still") == ["Engine.search", "Engine.search"]


def test_only_the_search_skips_still_rules():
    # the per-state calls keep firing every rule through `fire`
    found = sorted(
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in readers(path.read_text(), "still")
    )
    assert found == ["semantics.Engine.search"]


def test_checker_finds_every_add_call():
    source = (
        "class Engine:\n"
        "    def search(self, seen, code):\n"
        "        seen[code] = None\n"
        "        if code not in seen:\n"
        "            seen.add(code)\n"
        "        return self.adder(code), add_all(seen)\n"
        "    def explore(self, seen):\n"
        "        return {add(c) for c in seen}\n"
    )
    assert callers(source, "add") == ["Engine.explore", "Engine.search"]


def test_the_search_keeps_one_container():
    source = (PACKAGE / "semantics.py").read_text()
    assert "Engine.search" not in callers(source, "add")


def generators(source: str) -> list[str]:
    """Where a generator expression is built."""
    return places(source, lambda node: isinstance(node, ast.GeneratorExp))


def on_the_per_state_path(where: str) -> bool:
    """Is `where` `Engine.search`, or a function nested in it or in
    `is_reachable` (its `matches` test)?"""
    return where == "Engine.search" or where.startswith(("Engine.search.", "is_reachable."))


def test_checker_finds_every_generator_on_the_per_state_path():
    source = (
        "class Engine:\n"
        "    def search(self, q):\n"
        "        total = sum(x for x in q)\n"
        "        def inner():\n"
        "            return set(x for x in q)\n"
        "        return [x for x in q], {x: 1 for x in q}, total, inner\n"
        "    def enabled(self, q):\n"
        "        return all(x for x in q)\n"
        "def is_reachable(sys, targets):\n"
        "    names = tuple(t for t in targets)\n"
        "    def matches(q):\n"
        "        return any(all(q[c] == s for c, s in r) for r in names)\n"
        "    return matches\n"
    )
    assert generators(source) == [
        "Engine.enabled", "Engine.search", "Engine.search.inner", "is_reachable",
        "is_reachable.matches", "is_reachable.matches",
    ]
    assert [w for w in generators(source) if on_the_per_state_path(w)] == [
        "Engine.search", "Engine.search.inner",
        "is_reachable.matches", "is_reachable.matches",
    ]


def test_the_per_state_path_builds_no_generator():
    source = (PACKAGE / "semantics.py").read_text()
    assert [w for w in generators(source) if on_the_per_state_path(w)] == []


def memo_touches(source: str) -> list[str]:
    """Where the remembered-verdict attribute is touched: `x._validated`
    in any context, or the string "_validated" (as `getattr` and
    `object.__setattr__` name it)."""
    return places(
        source,
        lambda node: (isinstance(node, ast.Attribute) and node.attr == MEMO)
        or (isinstance(node, ast.Constant) and node.value == MEMO),
    )


def test_checker_finds_every_memo_touch():
    source = (
        "def validate(s):\n"
        "    if getattr(s, '_validated', False):\n"
        "        return\n"
        "    object.__setattr__(s, '_validated', True)\n"
        "class Cli:\n"
        "    def run(self, s):\n"
        "        s._validated = hasattr(s, '_validated_too')\n"
        "        del s._validated\n"
        "    def skip(self, s):\n"
        "        return s.validated, '_valid', s._validated.x\n"
    )
    assert memo_touches(source) == [
        "Cli.run", "Cli.run", "Cli.skip", "validate", "validate",
    ]


def test_only_validate_system_remembers_a_verdict():
    found = sorted({
        f"{path.stem}.{where}"
        for path in SOURCES
        if path != Path(__file__).resolve()
        for where in memo_touches(path.read_text())
    })
    assert found == ["model.validate_system"]


def table_subscripts(source: str) -> list[str]:
    """Where a rule table is subscripted.  A table is reached from a
    rule's participants or a port entry: a name unpacked from a pair whose
    source mentions `parts` or `ports` (`for ci, t in parts`, `ci, t =
    parts[0]`, `t, bits = ports[port]`), or three subscripts down from
    `parts` (`parts[0][1][s]`)."""
    tables = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.comprehension)):
            target, value = node.target, node.iter
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            continue
        if isinstance(target, ast.Tuple) and any(
            name in TABLE_SOURCES
            for sub in ast.walk(value)
            for name in (getattr(sub, "id", None), getattr(sub, "attr", None))
        ):
            tables.update(elt.id for elt in target.elts if isinstance(elt, ast.Name))

    def deep(node: ast.AST, depth: int) -> bool:
        while depth and isinstance(node, ast.Subscript):
            node, depth = node.value, depth - 1
        return not depth and "parts" in (
            getattr(node, "id", None), getattr(node, "attr", None)
        )

    return places(
        source,
        lambda node: isinstance(node, ast.Subscript)
        and (getattr(node.value, "id", None) in tables or deep(node.value, 2)),
    )


def test_checker_finds_every_table_subscript():
    source = (
        "def fill(ports, port, s):\n"
        "    table, bits = ports[port]\n"
        "    table[s] = bits\n"
        "class Engine:\n"
        "    def fire(self, q, parts):\n"
        "        ci, first = parts[0]\n"
        "        return first[q[ci]], [t[q[c]] for c, t in parts]\n"
        "    def search(self, q, k, rows):\n"
        "        parts = self.rules[k][1]\n"
        "        for ci, row in rows:\n"
        "            row[q[ci]]\n"
        "        return parts[0][1][q[0]], parts[0][1], self.parts(k)[0][0]\n"
    )
    assert table_subscripts(source) == [
        "Engine.fire", "Engine.fire", "Engine.search", "fill",
    ]


def test_only_fire_subscripts_a_rule_table():
    found = sorted({
        f"{path.stem}.{where}"
        for path in PACKAGE_MODULES
        for where in table_subscripts(path.read_text())
    })
    assert found == ["semantics.Engine.__init__", "semantics.Engine.fire"]


def lowest_bit_takes(source: str) -> list[str]:
    """Where a lowest set bit is taken: `x & -x` or `-x & x`, for the same
    expression `x` on both sides."""

    def hit(node: ast.AST) -> bool:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
            return False
        for neg, other in ((node.right, node.left), (node.left, node.right)):
            if (
                isinstance(neg, ast.UnaryOp)
                and isinstance(neg.op, ast.USub)
                and ast.dump(neg.operand) == ast.dump(other)
            ):
                return True
        return False

    return places(source, hit)


def test_checker_finds_every_lowest_bit():
    source = (
        "def walk(mask, m, other, x):\n"
        "    low = mask & -mask\n"
        "    return (-m) & m, mask & -other, m & ~m, -(x.y) & x.y, m & -1\n"
        "class Engine:\n"
        "    def enabled(self, bits):\n"
        "        return [b & -b for b in bits if b & b - 1]\n"
    )
    assert lowest_bit_takes(source) == ["Engine.enabled", "walk", "walk", "walk"]


def test_one_function_walks_a_masks_set_bits():
    found = sorted(
        f"{path.stem}.{where}"
        for path in PACKAGE_MODULES
        for where in lowest_bit_takes(path.read_text())
    )
    assert found == ["semantics._set_bits"]


def json_aliases(tree: ast.AST) -> set[str]:
    """The names an `import json` (with or without `as`) binds."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }


def json_writes(source: str) -> list[str]:
    """Calls of `json.dump` or `json.dumps` (also under an alias of the
    module) and imports of either name from `json`, as sorted source text."""
    tree = ast.parse(source)
    aliases = json_aliases(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            out.extend(f"from json import {a.name}" for a in node.names if a.name in JSON_WRITERS)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in JSON_WRITERS
            and getattr(node.func.value, "id", None) in aliases
        ):
            out.append(ast.unparse(node.func))
    return sorted(out)


def test_checker_finds_every_json_write():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps, loads\n"
        "def f(x, fp, out):\n"
        "    out.dumps(json.loads(x))\n"
        "    j.dump(x, fp)\n"
        "    return json.dumps(x, indent=2) + dumps(x)\n"
    )
    assert json_writes(source) == ["from json import dumps", "j.dump", "json.dumps"]


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=[p.name for p in PACKAGE_MODULES])
def test_dump_document_is_the_only_json_writer(module):
    assert json_writes(module.read_text()) == []


def encoder_imports(source: str) -> list[str]:
    """Imports of `json.encoder` or of any name from it, and reads of
    `encoder` off the `json` module (also under an alias), as sorted source
    text."""
    tree = ast.parse(source)
    aliases = json_aliases(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(
                f"import {a.name}"
                for a in node.names
                if a.name == "json.encoder" or a.name.startswith("json.encoder.")
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "json.encoder":
            out.extend(f"from json.encoder import {a.name}" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            out.extend(f"from json import {a.name}" for a in node.names if a.name == "encoder")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "encoder"
            and getattr(node.value, "id", None) in aliases
        ):
            out.append(ast.unparse(node))
    return sorted(out)


def test_checker_finds_every_encoder_import():
    source = (
        "import json\n"
        "import json as j\n"
        "import json.encoder\n"
        "import json.decoder\n"
        "from json import encoder, loads\n"
        "from json.encoder import encode_basestring_ascii as quote\n"
        "from json.decoder import JSONDecoder\n"
        "def f(x, out):\n"
        "    out.encoder(json.loads(x))\n"
        "    return j.encoder.encode_basestring(x)\n"
    )
    assert encoder_imports(source) == [
        "from json import encoder",
        "from json.encoder import encode_basestring_ascii",
        "import json.encoder",
        "j.encoder",
    ]


def test_only_formats_imports_the_encoder():
    found = sorted(
        f"{path.stem}: {hit}"
        for path in PACKAGE_MODULES
        for hit in encoder_imports(path.read_text())
    )
    assert found == ["formats: from json.encoder import encode_basestring_ascii"]


NAME_GATES = {
    "refuse_non_strings": [
        "formats.serialize_dtm",
        "formats.serialize_predicates",
        "model.refuse_untyped",
        "topology.export_dot",
        "turing.canonicalize_dtm",
    ],
    "_non_port_ids": ["model._typing_findings", "model.refuse_untyped"],
}


def test_checker_finds_calls_by_name_only():
    source = (
        "from .validation import refuse_non_strings\n"
        "def gate(v):\n"
        "    refuse_non_strings(v, 'x')\n"
        "    return validation.refuse_non_strings\n"
        "class Writer:\n"
        "    def write(self, v):\n"
        "        validation.refuse_non_strings(v, 'y')\n"
        "        refuse_non_strings_later(v)\n"
    )
    assert callers(source, "refuse_non_strings") == ["Writer.write", "gate"]


@pytest.mark.parametrize("name", sorted(NAME_GATES))
def test_names_are_refused_through_their_gates(name):
    found = sorted(
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in callers(path.read_text(), name)
    )
    assert found == NAME_GATES[name]


# public functions without a caller in src/ or bench/, and why they stay
UNCALLED = {
    "validate_model": "the model-level entry point of the rule tests in tests/test_model.py",
}


def public_functions(modules: dict[str, str]) -> dict[str, str]:
    """Each public (not underscored) top-level `def` of `modules`
    (key -> source), mapped to the key of its module."""
    return {
        node.name: key
        for key, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def uncalled(functions: dict[str, str], sources: dict[str, str]) -> list[str]:
    """The functions of `functions` (name -> key of the defining module)
    that no source of `sources` (key -> source) calls outside the
    function's own definition, sorted."""

    def elsewhere(name: str, key: str, where: str) -> bool:
        return key != functions[name] or not (where == name or where.startswith(f"{name}."))

    return sorted(
        name
        for name in functions
        if not any(
            elsewhere(name, key, where)
            for key, source in sources.items()
            for where in callers(source, name)
        )
    )


def test_checker_finds_every_uncalled_function():
    a = (
        "def used():\n"
        "    pass\n"
        "def loop(n):\n"
        "    return loop(n - 1)\n"
        "def nested():\n"
        "    def inner():\n"
        "        nested()\n"
        "def helper():\n"
        "    used()\n"
        "def unused():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class K:\n"
        "    def method(self):\n"
        "        pass\n"
    )
    b = "import a\ndef main():\n    a.helper()\n    return a.unused\n"
    functions = public_functions({"a": a, "b": b})
    assert functions == {
        **dict.fromkeys(["used", "loop", "nested", "helper", "unused"], "a"),
        "main": "b",
    }
    assert uncalled(functions, {"a": a, "b": b}) == ["loop", "main", "nested", "unused"]
    # a call by name from a module that does not define the function counts
    assert uncalled(functions, {"a": a, "b": b, "c": "def loop():\n    loop()\n"}) == [
        "main",
        "nested",
        "unused",
    ]


def test_every_public_function_has_a_caller_or_a_reason():
    package = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PACKAGE_MODULES}
    bench = {p.relative_to(ROOT).as_posix(): p.read_text() for p in (ROOT / "bench").glob("*.py")}
    functions = public_functions(package)
    assert set(UNCALLED) <= set(functions)
    assert all(UNCALLED.values())
    assert uncalled(functions, {**package, **bench}) == sorted(UNCALLED)
