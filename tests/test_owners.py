"""Ownership checks, read from the sources with `ast` (no linter ships
with the toolchain).

The engine's mixed-radix format has one owner: no module of the package
but `semantics.py` reads an attribute named `weights`, `radices` or
`state_names`.  Other modules translate states through `Engine.pack`,
`names` and `moved`.  Inside `semantics.py` the code is read only where it
is built, by `Engine.__init__` and `Engine.pack`, where a rule's steps are
scaled by its participants' weights, by `Engine.rule`, where it is read
back, by `Engine.names`, `moved`, `renamed` (a successor's participants'
names) and `decode` (a set of codes by halves), and where a code is moved
by the digits a step changes, by `linked_path`, which reads the
search's parent links.

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
through `Engine.fire`.  Likewise only `Engine.search` reads an attribute
named `fixed`, the engine's one-participant rules whose every enabled
table entry has the same number of steps: it counts each enabled one by
that fan-out once per enabledness mask, where the per-state calls count
the steps `fire` returns.  `Engine.rule`, which builds a rule on first
use, is the one writer of `fixed`.

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

The typed mark has one owner too: only `model.py` reads or writes the
attribute that marks a system's names as typed where they were made, and
each builder that makes them so marks its result through
`model._mark_typed`, so no caller can skip the name scan by setting it.

An engine's state record has two owners: only `Engine.__init__`, which
starts it with no state, and `semantics._record_of`, which builds a
state's record whole and replaces it in one assignment, touch the
attribute that holds it.  The three per-state calls (`enabled_interactions`,
`successors`, `step`) read it through `_record_of` only, so no caller can
see a record half built, nor trust what it remembers of a state.

A search's parent links have one writer and one reader:
`semantics.is_reachable` keeps them on its result, and only
`semantics.linked_path` reads them back, so the link format stays
inside `semantics.py` and no caller trusts links that another search
left.

The machine runs once per Theorem 1 check: `check_theorem1` calls
`run_tm` exactly once, through `oracle`'s module global, which the
benchmark wraps as its `turing.run` span, and calls no `tm_step`; its
lockstep reads a drain of `turing._moves` of its own, so the span counts
each step once.  `turing.tm_step`, the public one-move API, has no caller
in the package.

The engine has one firing rule and one inlined copy of its simplest case:
a rule table is subscripted only in `Engine.rule`, the one place a table
is built, on a rule's first use, in `Engine.fire`, and in
`Engine.search`, which takes a fixed one-participant rule's steps as its
table entry without calling `fire`.
No other caller inlines a firing rule; `step` names its blockers by firing
each participant alone.

A mask's set bits are walked in one place: only `semantics._set_bits`
takes a lowest set bit (`x & -x`), and both `Engine.enabled` and the
search's still/moving split read their rules off it.

`formats` is the only writer of documents: the package calls `json.dumps`
exactly once, in `formats.dump_document`, which writes every document but
the system's, and `json.dump` nowhere.  `formats.serialize_system` renders
the system document from templates, and only `formats` imports
`json.encoder` (or any name from it), whose `encode_basestring_ascii`
quotes that document's strings.  So the bytes of every document have one
owner.

Each refusal text of the document reader is spelled once: `expected a
string`, `expected an array`, `expected an object`, `expected an integer`,
`unknown field`, `missing field`, `unsupported version` and `must be
'component.port'` each occur exactly once in `formats.py`, inside
`formats._read`, which reads every document object against its field
table.  So no per-value walker grows back beside the tables.

Every function has a user: each function and method of the package,
nested and private ones included (dunders excepted), is called or read
by name (passed as a hook, read as a property) in `src/` outside its own
definition, or in `bench/`, or is on an allow-list that gives the reason
it has no such user.  So a simplification cannot leave dead code behind.
"""

import ast
from pathlib import Path
from typing import Callable

import pytest

from interax import check_theorem1, oracle, turing
from interax.formats import parse_dtm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "interax"
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
OUTSIDE = sorted(p for p in PACKAGE.glob("*.py") if p.name != "semantics.py")
SOURCES = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
)
CODEC = {"weights", "radices", "state_names"}
JSON_WRITERS = {"dump", "dumps"}
MEMO = "_validated"
MARK = "_typed"
RECORD = "_record"
LINKS = "_links"
TABLE_SOURCES = {"parts", "ports", "moving", "fixed"}


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


def located(source: str, hit: Callable[[ast.AST], bool]) -> list[tuple[str, ast.AST]]:
    """Each node that `hit` accepts, after the dotted name of its enclosing
    functions and classes ("" at module level)."""
    out = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if hit(child):
                out.append((where, child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
            else:
                visit(child, where)

    visit(ast.parse(source), "")
    return out


def places(source: str, hit: Callable[[ast.AST], bool]) -> list[str]:
    """Where a node that `hit` accepts occurs: the dotted name of each one's
    enclosing functions and classes ("" at module level), sorted."""
    return sorted(where for where, _ in located(source, hit))


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


def codec_readers(source: str) -> list[str]:
    """Where a codec attribute is read, each place once."""
    return sorted({where for attr in CODEC for where in readers(source, attr)})


def test_checker_finds_every_codec_reader():
    source = (
        "radices = [3]\n"
        "class Engine:\n"
        "    def pack(self, q):\n"
        "        self.weights = [1]\n"
        "        return self.weights[0] * len(radices)\n"
        "    def names(self, code):\n"
        "        def inner():\n"
        "            return self.state_names\n"
        "        return self.radices, self.engine.radices, inner\n"
        "    def fire(self, weights):\n"
        "        return weights, getattr(self, 'radices')\n"
        "def decode(eng):\n"
        "    return eng.state_names\n"
    )
    assert codec_readers(source) == [
        "Engine.names", "Engine.names.inner", "Engine.pack", "decode",
    ]


def test_only_the_codecs_readers_read_it():
    assert codec_readers((PACKAGE / "semantics.py").read_text()) == [
        "Engine.__init__", "Engine.decode", "Engine.moved", "Engine.names",
        "Engine.pack", "Engine.renamed", "Engine.rule", "linked_path",
    ]


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


def test_only_the_search_counts_fixed_rules():
    # the per-state calls count each rule by the steps `fire` returns;
    # `rule` fills the fixed rules as it builds them
    found = sorted(
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in readers(path.read_text(), "fixed")
    )
    assert found == ["semantics.Engine.rule", "semantics.Engine.search"]


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


def touches(source: str, attr: str) -> list[str]:
    """Where the private attribute `attr` is touched: `x.<attr>` in any
    context, or the string `attr` (as `getattr` and `object.__setattr__`
    name it)."""
    return places(
        source,
        lambda node: (isinstance(node, ast.Attribute) and node.attr == attr)
        or (isinstance(node, ast.Constant) and node.value == attr),
    )


def touchers(attr: str) -> list[str]:
    """`module.where` for each place of the package, the tests (but this
    file) and the bench that touches `attr`, each once."""
    return sorted({
        f"{path.stem}.{where}"
        for path in SOURCES
        if path != Path(__file__).resolve()
        for where in touches(path.read_text(), attr)
    })


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
    assert touches(source, MEMO) == [
        "Cli.run", "Cli.run", "Cli.skip", "validate", "validate",
    ]


def test_only_validate_system_remembers_a_verdict():
    assert touchers(MEMO) == ["model.validate_system"]


def test_only_model_touches_the_typed_mark():
    assert touchers(MARK) == [
        "model._mark_typed", "model.refuse_untyped", "model.validate_system",
    ]


def test_only_the_constructor_and_the_record_builder_touch_the_record():
    assert touchers(RECORD) == ["semantics.Engine.__init__", "semantics._record_of"]


def test_only_is_reachable_writes_the_links_and_only_their_reader_reads_them():
    assert touchers(LINKS) == ["semantics.is_reachable", "semantics.linked_path"]
    writes = places(
        (PACKAGE / "semantics.py").read_text(),
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == LINKS
        and isinstance(node.ctx, ast.Store),
    )
    assert writes == ["is_reachable"]


def test_check_theorem1_runs_the_machine_once_and_steps_it_nowhere(monkeypatch):
    calls = []

    def spy(module, name):
        real = getattr(module, name, None)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted, raising=False)

    for module in (oracle, turing):
        for name in ("run_tm", "tm_step"):
            spy(module, name)
    fixtures = ROOT / "fixtures"
    cases = [
        (fixtures / "even_a.json", "aaa"),  # reject
        (fixtures / "first_last.json", "0110"),  # accept
        (fixtures / "ping_pong.json", "a"),  # loop
        (fixtures / "counter.json", "000"),  # 30 steps
    ]
    for path, word in cases:
        calls.clear()
        assert check_theorem1(parse_dtm(path.read_text()), word).agree
        assert calls == ["run_tm"], path.name


def test_builders_mark_their_results_through_the_helper():
    # each makes every name a string and every port entry a PortId;
    # `starify` marks its result only when its input is marked
    found = sorted(
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in callers(path.read_text(), "_mark_typed")
    )
    assert found == [
        "formats.parse_system",
        "oracle.gen_random_system",
        "reduce_linear.compile_lsa",
        "reduce_linear.extend_halt_propagation",
        "reduce_star.starify",
    ]


def table_subscripts(source: str) -> list[str]:
    """Where a rule table is subscripted.  A table is reached from a
    rule's participants, a port entry, the search's split or the fixed
    rules: a name unpacked from a tuple whose source mentions `parts`,
    `ports`, `moving` or `fixed` (`for ci, t in parts`, `ci, t =
    parts[0]`, `t, bits = ports[port]`, `for k, parts, ci, t in moving`,
    `ci, t, fan = fixed[k]`), or three subscripts down from `parts`
    (`parts[0][1][s]`)."""
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
        "    def walk(self, q, split):\n"
        "        stills, moving = split\n"
        "        for k, rule, ci, own in moving:\n"
        "            own[q[ci]]\n"
        "    def count(self, q, k):\n"
        "        cj, entries, fan = self.fixed.get(k)\n"
        "        return entries[q[cj]]\n"
    )
    assert table_subscripts(source) == [
        "Engine.count", "Engine.fire", "Engine.fire", "Engine.search", "Engine.walk",
        "fill",
    ]


def test_only_the_build_fire_and_the_search_subscript_a_rule_table():
    # `rule` builds each table on first use; the search reads a fixed
    # rule's entry itself: measured at about a fifth of ring-reach's time,
    # it is the one reader beside `fire`
    found = sorted({
        f"{path.stem}.{where}"
        for path in PACKAGE_MODULES
        for where in table_subscripts(path.read_text())
    })
    assert found == [
        "semantics.Engine.fire", "semantics.Engine.rule", "semantics.Engine.search",
    ]


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
    module) and imports of either name from `json`, each as `where: source
    text`, where `where` names the enclosing functions and classes
    (`<module>` at module level), sorted."""
    aliases = json_aliases(ast.parse(source))
    out = []
    for where, node in located(source, lambda n: isinstance(n, (ast.ImportFrom, ast.Call))):
        where = where or "<module>"
        if isinstance(node, ast.ImportFrom):
            if node.module == "json":
                out.extend(
                    f"{where}: from json import {a.name}"
                    for a in node.names
                    if a.name in JSON_WRITERS
                )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in JSON_WRITERS
            and getattr(node.func.value, "id", None) in aliases
        ):
            out.append(f"{where}: {ast.unparse(node.func)}")
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
        "class Writer:\n"
        "    def write(self, x):\n"
        "        return json.dumps(x)\n"
    )
    assert json_writes(source) == [
        "<module>: from json import dumps",
        "Writer.write: json.dumps",
        "f: j.dump",
        "f: json.dumps",
    ]


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=[p.name for p in PACKAGE_MODULES])
def test_dump_document_is_the_only_json_writer(module):
    expected = ["dump_document: json.dumps"] if module.name == "formats.py" else []
    assert json_writes(module.read_text()) == expected


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


READER_TEXTS = (
    "expected a string",
    "expected an array",
    "expected an object",
    "expected an integer",
    "unknown field",
    "missing field",
    "unsupported version",
    "must be 'component.port'",
)


def text_places(source: str, text: str) -> list[str]:
    """Where `text` occurs on one line of `source`: the dotted name of the
    innermost function or class around each occurrence ("" at module
    level), once per occurrence, sorted."""
    defs = [
        (f"{where}.{node.name}".lstrip("."), node)
        for where, node in located(
            source, lambda n: isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        )
    ]
    out = []
    for number, line in enumerate(source.splitlines(), 1):
        around = [name for name, node in defs if node.lineno <= number <= node.end_lineno]
        out += [max(around, key=len, default="")] * line.count(text)
    return sorted(out)


def test_checker_finds_every_text():
    source = (
        '"""Says expected a string."""\n'
        "def read(v):\n"
        "    if v:\n"
        "        raise ValueError('expected a string, or expected a string')\n"
        "    def inner():\n"
        "        return 'expected a string'\n"
        "class K:\n"
        "    def m(self):\n"
        "        return 'expected an array'\n"
    )
    assert text_places(source, "expected a string") == ["", "read", "read", "read.inner"]
    assert text_places(source, "expected an array") == ["K.m"]
    assert text_places(source, "unknown field") == []


@pytest.mark.parametrize("text", READER_TEXTS)
def test_the_reader_spells_each_refusal_text_once(text):
    assert text_places((PACKAGE / "formats.py").read_text(), text) == ["_read"]


# functions without a user in src/ or bench/, and why they stay
UNUSED = {
    "model.validate_model": "the model-level entry point of the rule tests in tests/test_model.py",
    "turing.tm_step": "the public one-move API, pinned by tests/test_turing.py; every run "
    "in the package reads turing._moves",
}


def functions(modules: dict[str, str]) -> list[tuple[str, str]]:
    """(module key, dotted name) of each function and method of `modules`
    (key -> source), nested and private ones included, dunders excepted."""
    return sorted(
        (key, f"{where}.{node.name}".lstrip("."))
        for key, source in modules.items()
        for where, node in located(
            source, lambda n: isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        if not (node.name.startswith("__") and node.name.endswith("__"))
    )


def users(source: str, name: str) -> list[str]:
    """Where `name` or `x.name` is read: called, passed or looked up."""
    return places(
        source,
        lambda node: isinstance(getattr(node, "ctx", None), ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None)),
    )


def unused(found: list[tuple[str, str]], sources: dict[str, str]) -> list[str]:
    """`module.name` for each function of `found` (module key, dotted
    name) that no source of `sources` (key -> source) reads by its last
    name outside the function's own definition, sorted."""

    def elsewhere(key: str, name: str, other: str, where: str) -> bool:
        return other != key or not (where == name or where.startswith(f"{name}."))

    return sorted(
        f"{Path(key).stem}.{name}"
        for key, name in found
        if not any(
            elsewhere(key, name, other, where)
            for other, source in sources.items()
            for where in users(source, name.rpartition(".")[2])
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
        "    return json.loads('1', parse_constant=_hook)\n"
        "def unused():\n"
        "    pass\n"
        "def _hook(x):\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.method = None\n"
        "    def method(self):\n"
        "        return self.prop\n"
        "    @property\n"
        "    def prop(self):\n"
        "        pass\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
    )
    b = "import a\ndef main():\n    a.helper()\n    return a.unused\n"
    found = functions({"a": a, "b": b})
    assert found == [
        ("a", name)
        for name in [
            "K.method", "K.prop", "K.recursive", "_hook", "_private", "helper", "loop",
            "nested", "nested.inner", "unused", "used",
        ]
    ] + [("b", "main")]
    # a write is no use, and neither is a read inside the function itself
    assert unused(found, {"a": a, "b": b}) == [
        "a.K.method", "a.K.recursive", "a._private", "a.loop", "a.nested",
        "a.nested.inner", "b.main",
    ]
    # a read by name from a module that does not define the function counts
    assert unused(found, {"a": a, "b": b, "c": "def loop():\n    loop()\n"}) == [
        "a.K.method", "a.K.recursive", "a._private", "a.nested", "a.nested.inner",
        "b.main",
    ]


def test_every_function_has_a_user_or_a_reason():
    package = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PACKAGE_MODULES}
    bench = {p.relative_to(ROOT).as_posix(): p.read_text() for p in (ROOT / "bench").glob("*.py")}
    found = functions(package)
    assert set(UNUSED) <= {f"{Path(key).stem}.{name}" for key, name in found}
    assert all(UNUSED.values())
    assert unused(found, {**package, **bench}) == sorted(UNUSED)
