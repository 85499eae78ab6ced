"""Document parsing and canonical serialization: round trips, strictness,
and a seeded mutation fuzz asserting no invalid document slips through."""

import hashlib
import json
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

from interax import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    ParseError,
    PortId,
    accept_predicate,
    compile_lsa,
    extend_halt_propagation,
    starify,
    validate_dtm,
    validate_system,
)
from interax import cli, formats
from interax.cli import run_cli
from interax.fixtures import client_server, even_a, first_last, pipeline
from interax.formats import (
    dump_document,
    parse_dtm,
    parse_predicates,
    parse_system,
    serialize_dtm,
    serialize_predicates,
    serialize_system,
)
from interax.oracle import ENGINE_EQUIVALENCE_SEEDS, GenParams, gen_random_system
from interax.turing import canonicalize_dtm

from canonical import canonicalize_system


def system_fixtures():
    machine = even_a()
    compiled = compile_lsa(machine, "a")
    extended, _ = extend_halt_propagation(machine, "aa")
    return [
        client_server(1),
        client_server(2),
        client_server(3),
        pipeline(2),
        pipeline(4),
        compiled,
        compile_lsa(first_last(), "01"),
        starify(client_server(2)),
        extended,
    ]


class TestSystemRoundTrip:
    def test_parse_of_serialize_is_canonicalize(self):
        for sys in system_fixtures():
            assert parse_system(serialize_system(sys)) == canonicalize_system(sys)

    def test_random_systems_round_trip(self):
        for seed in range(200):
            sys = gen_random_system(GenParams(seed=seed))
            assert parse_system(serialize_system(sys)) == canonicalize_system(sys)

    def test_serialize_deterministic(self):
        sys = client_server(2)
        assert serialize_system(sys) == serialize_system(sys)

    def test_serialize_ignores_declaration_order(self):
        from interax import InteractionModel, InteractionSystem

        sys = client_server(2)
        shuffled = InteractionSystem(
            InteractionModel(
                tuple(reversed(sys.model.components)),
                sys.model.ports,
                tuple(reversed(sys.model.interactions)),
            ),
            sys.behaviors,
        )
        assert serialize_system(shuffled) == serialize_system(sys)

    def test_compiled_system_revalidates_after_round_trip(self):
        sys = compile_lsa(even_a(), "a")
        again = parse_system(serialize_system(sys))
        assert validate_system(again).ok

    def test_invalid_system_keeps_its_findings(self):
        ports = (PortId("c", "x"), PortId("d", "y"))
        sys = InteractionSystem(
            InteractionModel(
                ("c", "d"),
                {"c": ("x", "x"), "d": ("y",)},
                (Interaction("a", ports), Interaction("b", ports[::-1])),
            ),
            {
                "c": LocalBehavior(("p", "q", "p"), frozenset({("p", "x", "q")}), "p"),
                "d": LocalBehavior(("r",), frozenset({("r", "y", "r")}), "r"),
            },
        )
        rules = sorted(f.rule for f in validate_system(sys).findings)
        assert rules == ["duplicate-interaction", "duplicate-port", "duplicate-state"]
        again = parse_system(serialize_system(sys), validate=False)
        assert sorted(f.rule for f in validate_system(again).findings) == rules
        # a behavior-component mismatch and a port family for an unknown
        # component survive canonicalization, but a document states each
        # behavior and port family with its component, so none is written
        base = client_server(1)
        stray_family = InteractionModel(
            base.model.components,
            {**base.model.ports, "zz": ("a",)},
            base.model.interactions,
        )
        for broken, rule, message in (
            (
                InteractionSystem(
                    base.model,
                    {c: b for c, b in base.behaviors.items() if c != "c1"},
                ),
                "behavior-component-mismatch",
                "component c1 has no behavior",
            ),
            (
                InteractionSystem(
                    base.model, {**base.behaviors, "zz": base.behaviors["c1"]}
                ),
                "behavior-component-mismatch",
                "component zz is not in the model",
            ),
            (
                InteractionSystem(stray_family, base.behaviors),
                "unknown-component-ref",
                "port family for component zz is not in the model",
            ),
        ):
            for checked in (broken, canonicalize_system(broken)):
                rules = [f.rule for f in validate_system(checked).findings]
                assert rules == [rule], message
            with pytest.raises(ModelError, match=message):
                serialize_system(broken)

    def test_many_components_write_in_linear_time(self):
        # membership tests against the component tuple made this quadratic (about 8 s)
        components = tuple(f"k{j}" for j in range(20_000))
        behavior = LocalBehavior(("q0",), frozenset(), "q0")
        system = InteractionSystem(
            InteractionModel(components, {c: () for c in components}, ()),
            dict.fromkeys(components, behavior),
        )
        t0 = time.monotonic()
        text = serialize_system(system)
        assert time.monotonic() - t0 < 2.0
        assert parse_system(text) == canonicalize_system(system)

    @pytest.mark.parametrize(
        "port, reference",
        [(PortId("s1", ""), "s1."), (PortId("", "p"), ".p"), (PortId("a.b", "p"), "a.b.p")],
        ids=["empty-port", "empty-component", "dotted-component"],
    )
    def test_unreadable_port_reference_is_refused(self, port, reference):
        # "s1." and ".p" do not parse, and "a.b.p" reads back as port "b.p" of "a"
        base = pipeline(2)
        interactions = (*base.model.interactions, Interaction("i", (port,)))
        system = InteractionSystem(replace(base.model, interactions=interactions), base.behaviors)
        message = (
            f"cannot serialize: interaction 'i' lists {port!r}, "
            f"whose reference {reference!r} does not read back as it"
        )
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            serialize_system(system)

    def test_several_faults_are_refused_in_canonical_order(self):
        # the writer checks missing behaviors, then behaviors the model
        # lacks, then stray port families, then port references, each in
        # sorted order, whatever order the system lists them in
        b = LocalBehavior(("q",), frozenset(), "q")
        behaviors = {"a": b, "c": b}
        extra = {**behaviors, "yy": b, "y": b}
        model = InteractionModel(("c", "a"), {"a": (), "c": (), "zz": ("p",), "z": ("p",)}, ())
        missing = replace(model, components=("e", "c", "b", "a"))
        for system, message in (
            (InteractionSystem(missing, extra), "component b has no behavior"),
            (InteractionSystem(model, extra), "component y is not in the model"),
            (InteractionSystem(model, behaviors), "port family for component z is not in the model"),
        ):
            with pytest.raises(ModelError, match=f"^cannot serialize: {message}$"):
                serialize_system(system)
        unreadable = (
            Interaction("n", (PortId("", "p"),)),
            Interaction("m", (PortId("x.y", "p"), PortId("a.b", "p"))),
        )
        system = InteractionSystem(
            InteractionModel(("c", "a"), {"a": (), "c": ()}, unreadable), behaviors
        )
        message = (
            f"cannot serialize: interaction 'm' lists {PortId('a.b', 'p')!r}, "
            "whose reference 'a.b.p' does not read back as it"
        )
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            serialize_system(system)


class TestDtmRoundTrip:
    def test_parse_of_serialize_is_canonicalize(self):
        for machine in (even_a(), first_last()):
            assert parse_dtm(serialize_dtm(machine)) == canonicalize_dtm(machine)

    def test_invalid_machine_keeps_its_findings(self):
        machine = even_a()
        broken = replace(
            machine,
            tape_alphabet=machine.tape_alphabet * 2,
            states=(*machine.states, machine.initial),
        )
        rules = sorted(f.rule for f in validate_dtm(broken).findings)
        assert set(rules) == {"duplicate-symbol", "duplicate-state"}
        with pytest.raises(ModelError) as caught:
            parse_dtm(serialize_dtm(broken))
        details = str(caught.value).removeprefix("invalid machine: ").split("; ")
        assert sorted(d.split(":")[0] for d in details) == rules

    def test_serialize_deterministic(self):
        assert serialize_dtm(even_a()) == serialize_dtm(even_a())

    @staticmethod
    def with_move(move):
        """even_a with its first rule's move replaced, and that rule."""
        machine = even_a()
        rule = min(machine.delta)
        state, symbol, _ = machine.delta[rule]
        return replace(machine, delta={**machine.delta, rule: (state, symbol, move)}), rule

    @pytest.mark.parametrize("move", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
    def test_move_that_is_not_an_int_is_refused(self, move):
        # true, "1" and null were written and then refused by parse_dtm, and
        # 1.0 raised the encoder's TypeError
        machine, (state, symbol) = self.with_move(move)
        message = (
            f"cannot serialize: delta rule ({state}, {symbol}) has move {move!r}, "
            "which is not an int"
        )
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            serialize_dtm(machine)

    @pytest.mark.parametrize("move", [0, 2])
    def test_int_move_out_of_range_keeps_its_finding(self, move):
        machine, (state, symbol) = self.with_move(move)
        message = f"invalid machine: delta-bad-move: delta rule ({state}, {symbol}) has move {move}"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            parse_dtm(serialize_dtm(machine))


class TestParseErrors:
    def test_empty_document(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_system("")

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="expected an object"):
            parse_system("[1, 2]")

    def test_unknown_top_level_field(self):
        doc = json.loads(serialize_system(client_server(1)))
        doc["extra"] = 1
        with pytest.raises(ParseError, match="unknown field 'extra'"):
            parse_system(json.dumps(doc))

    def test_missing_version(self):
        doc = json.loads(serialize_system(client_server(1)))
        del doc["version"]
        with pytest.raises(ParseError, match="missing field 'version'"):
            parse_system(json.dumps(doc))

    def test_duplicate_interaction_names_both(self):
        # a repeated port set is a model rule: validation reports it
        doc = json.loads(serialize_system(client_server(1)))
        first = doc["interactions"][0]
        doc["interactions"].append({**first, "name": "again"})
        text = json.dumps(doc)
        with pytest.raises(ModelError, match="invalid system: duplicate-interaction"):
            parse_system(text)
        findings = validate_system(parse_system(text, validate=False)).findings
        assert [(f.rule, f.message) for f in findings] == [
            (
                "duplicate-interaction",
                f"interactions {first['name']} and again have identical port sets",
            )
        ]

    def test_bad_port_reference(self):
        doc = json.loads(serialize_system(client_server(1)))
        for ref in ("no-dot-here", ".connect_1", "S."):
            doc["interactions"][0]["ports"][0] = ref
            with pytest.raises(ParseError, match="must be 'component.port'"):
                parse_system(json.dumps(doc))

    def test_non_string_value(self):
        doc = json.loads(serialize_system(client_server(1)))
        doc["components"][0]["initial"] = 7
        with pytest.raises(
            ParseError, match=r"components\[0\]\.initial: expected a string, got int"
        ):
            parse_system(json.dumps(doc))

    def test_component_declared_twice(self):
        # a repeated component name is a model rule: validation reports it
        doc = json.loads(serialize_system(client_server(1)))
        doc["components"].append(dict(doc["components"][0]))
        text = json.dumps(doc)
        with pytest.raises(ModelError, match="invalid system: duplicate-component"):
            parse_system(text)
        system = parse_system(text, validate=False)
        assert system.model.components == ("S", "c1", "S")
        assert [str(f) for f in validate_system(system).findings] == [
            "duplicate-component: component S declared twice"
        ]

    def test_non_standard_constants(self):
        for constant in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ParseError, match=f"{constant} is not a JSON number"):
                parse_system(f'{{"version": {constant}}}')
            with pytest.raises(ParseError, match=f"{constant} is not a JSON number"):
                parse_predicates(f'{{"version": 1, "predicates": [[{constant}]]}}')

    def test_validation_findings_surface_as_errors(self):
        doc = json.loads(serialize_system(client_server(1)))
        doc["components"][0]["ports"].append("orphan")
        text = json.dumps(doc)
        with pytest.raises(ModelError, match="uncovered port"):
            parse_system(text)
        # the lenient mode parses and leaves the findings to the caller
        system = parse_system(text, validate=False)
        assert not validate_system(system).ok

    def test_duplicate_key(self):
        text = serialize_system(client_server(1))
        twice = text.replace('"version": 1', '"version": 1, "version": 1')
        with pytest.raises(ParseError, match="duplicate key 'version'"):
            parse_system(twice)
        # without the check the second port list would silently win
        two_lists = text.replace('"name": "S",', '"name": "S", "ports": [],')
        with pytest.raises(ParseError, match="duplicate key 'ports'"):
            parse_system(two_lists)
        with pytest.raises(ParseError, match="duplicate key 'S'"):
            parse_predicates(
                '{"version": 1, "predicates": [{"S": "busy", "S": "free"}]}'
            )

    def test_dtm_duplicate_rule_row(self):
        doc = json.loads(serialize_dtm(even_a()))
        doc["delta"].append(dict(doc["delta"][0]))
        with pytest.raises(ParseError, match="duplicates"):
            parse_dtm(json.dumps(doc))

    def test_dtm_bad_move(self):
        doc = json.loads(serialize_dtm(even_a()))
        # the range is a machine rule; the type is the parser's
        doc["delta"][0]["move"] = 0
        with pytest.raises(ModelError, match="invalid machine: delta-bad-move"):
            parse_dtm(json.dumps(doc))
        doc["delta"][0]["move"] = True
        with pytest.raises(ParseError, match="move: expected an integer, got bool"):
            parse_dtm(json.dumps(doc))

    def test_predicates_document(self):
        text = serialize_predicates([{"S": "busy", "c1": "*"}])
        assert parse_predicates(text) == [{"S": "busy", "c1": "*"}]
        with pytest.raises(ParseError, match="unknown field"):
            parse_predicates('{"version": 1, "predicates": [], "junk": 0}')


@pytest.mark.parametrize(
    "predicates",
    [[{1: "x"}], [{1: "x", "c": "y"}], [{"c": "y"}, {"c": 1}]],
    ids=["int-component", "mixed-components", "int-state"],
)
def test_predicates_with_names_that_are_not_strings_are_refused(predicates):
    # the first was written as "1", so its round trip changed the value; the
    # second raised the sorting TypeError
    with pytest.raises(ModelError, match="^cannot serialize: name 1 is not a string$"):
        serialize_predicates(predicates)


class Shown(int):
    """An int whose text is not its number; JSON writes the number."""

    def __repr__(self):
        return "shown"

    __str__ = __repr__


class Named(str):
    """A str subclass; JSON writes its text."""


def _edge_system(names: dict, interactions: bool = True):
    """Component `c` with port `p`, states `q` and `r` and a transition
    `q --p--> r`; interaction `i` over `c.p` unless `interactions` is false;
    and component `e` with an empty port family, one state and no
    transitions.  `names` renames any of c, p, q, r and i."""
    c, p, q, r, i = (names.get(k, k) for k in "cpqri")
    return InteractionSystem(
        InteractionModel(
            (c, "e"),
            {c: (p,), "e": ()},
            (Interaction(i, (PortId(c, p),)),) if interactions else (),
        ),
        {
            c: LocalBehavior((q, r), frozenset({(q, p, r)}), q),
            "e": LocalBehavior(("s",), frozenset(), "s"),
        },
    )


EDGE_SYSTEMS = {
    "no-interactions": _edge_system({}, interactions=False),
    "escapes": _edge_system(
        {"c": "caf\u00e9", "p": 'q"uote', "q": "back\\slash", "r": "bell\x07", "i": "\u2028"}
    ),
    "lone-surrogate": _edge_system({"q": "\ud800", "i": "\udfff\ud83d"}),
    "str-subclass": _edge_system({k: Named(k) for k in "cpqri"}),
}


FIXTURE_PATHS = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))


def reference(doc):
    """The bytes `dump_document(doc)` must equal, as the standard library's
    encoder writes them."""
    return json.dumps({"version": 1, **doc}, sort_keys=True, indent=2) + "\n"


def system_doc(sys):
    """The system document of `sys` as a dict, for `reference`: the bytes
    `serialize_system(sys)` must equal are `reference(system_doc(sys))`."""
    canonical = canonicalize_system(sys)
    return {
        "components": [
            {
                "name": c,
                "ports": list(canonical.model.ports[c]),
                "states": list(canonical.behaviors[c].states),
                "initial": canonical.behaviors[c].initial,
                "transitions": [
                    {"from": src, "port": port, "to": dst}
                    for src, port, dst in sorted(canonical.behaviors[c].transitions)
                ],
            }
            for c in canonical.model.components
        ],
        "interactions": [
            {"name": a.name, "ports": [f"{p.component}.{p.port}" for p in a.ports]}
            for a in canonical.model.interactions
        ],
    }


@pytest.fixture
def written(monkeypatch):
    """Every document written while the test runs, through `dump_document`
    or `serialize_system`, each checked against `reference` as it is
    written."""
    docs = []

    def checked(doc):
        text = dump_document(doc)
        assert text == reference(doc)
        docs.append(doc)
        return text

    def checked_system(sys):
        text = serialize_system(sys)
        doc = system_doc(sys)
        assert text == reference(doc)
        docs.append(doc)
        return text

    monkeypatch.setattr(formats, "dump_document", checked)
    monkeypatch.setattr(cli, "dump_document", checked)
    monkeypatch.setattr(formats, "serialize_system", checked_system)
    monkeypatch.setattr(cli, "serialize_system", checked_system)
    return docs


def fixture_values():
    """(path, value) pairs for the systems and for the machines under
    fixtures/."""
    systems, machines = [], []
    for path in FIXTURE_PATHS:
        text = path.read_text()
        if "components" in json.loads(text):
            systems.append((path, parse_system(text)))
        else:
            machines.append((path, parse_dtm(text)))
    return systems, machines


class TestWriter:
    def test_fixture_documents(self, written):
        systems, machines = fixture_values()
        for _, system in systems:
            formats.serialize_system(system)
        for _, machine in machines:
            serialize_dtm(machine)
        assert len(written) == len(FIXTURE_PATHS)

    def test_starified_fixture_systems(self, written):
        systems, _ = fixture_values()
        for _, system in systems:
            formats.serialize_system(starify(system))
        assert len(written) == len(systems)

    def test_compiled_fixture_machines(self, written):
        _, machines = fixture_values()
        for _, machine in machines:
            for word in ("", machine.input_alphabet[-1] * 3):
                formats.serialize_system(compile_lsa(machine, word))
                serialize_predicates([p.as_dict() for p in accept_predicate(machine, word)])
        assert len(written) == 4 * len(machines)

    def test_cli_documents(self, written, capsys):
        systems, machines = fixture_values()
        argvs = [("gen-random", "--seed", 1)]
        for path, system in systems:
            c = system.model.components[0]
            argvs.append(("reach", path, "--target", f"{c}={system.behaviors[c].initial}"))
            for command in ("validate", "classify", "starify", "check-thm2"):
                argvs.append((command, path))
        for path, machine in machines:
            word = machine.input_alphabet[-1] * 2
            for command in ("tm-run", "tm-compile", "check-thm1"):
                argvs.append((command, path, "--input", word))
        # a refused command (check-thm2 past the brute-force guard) writes nothing
        codes = [run_cli([str(a) for a in argv]) for argv in argvs]
        assert set(codes) == {0, 2}
        assert len(written) == codes.count(0)
        assert capsys.readouterr().out == "".join(map(reference, written))

    def test_edge_values(self):
        doc = {
            "empty": [[], {}, ()],
            "text": ["é\x00\n\"\\", "\ud800", "\U0001f600", ""],
            "ints": [-(10**40), 0, True, False, None],
            "tuple": ("a", ("b", {"é": ()})),
            "subclasses": [Shown(3), Named("x"), {Named("k"): Shown(4)}],
        }
        assert dump_document(doc) == reference(doc)

    def test_system_documents(self):
        systems, machines = fixture_values()
        corpus = [system for _, system in systems]
        corpus += [starify(system) for system in corpus]
        for _, machine in machines:
            for word in ("", machine.input_alphabet[-1] * 3):
                corpus.append(compile_lsa(machine, word))
        draws = [gen_random_system(GenParams(seed=seed)) for seed in ENGINE_EQUIVALENCE_SEEDS]
        corpus += draws + [starify(draw) for draw in draws]
        for system in corpus:
            assert serialize_system(system) == reference(system_doc(system))

    @pytest.mark.parametrize("system", EDGE_SYSTEMS.values(), ids=EDGE_SYSTEMS.keys())
    def test_edge_systems(self, system):
        assert serialize_system(system) == reference(system_doc(system))

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"a"}, "Object of type set is not JSON serializable"),
            ([{"k": b"x"}], "Object of type bytes is not JSON serializable"),
        ],
        ids=["set", "nested-bytes"],
    )
    def test_other_values_raise_type_error(self, value, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            dump_document({"value": value})


# mutation operators: each takes a parsed document and returns a broken copy
def _sys_drop_version(doc, rng):
    del doc["version"]


def _sys_wrong_version(doc, rng):
    doc["version"] = rng.choice([99, True, 1.0])


def _sys_unknown_field(doc, rng):
    doc["junk"] = True


def _sys_component_unknown_field(doc, rng):
    rng.choice(doc["components"])["bogus"] = 1


def _sys_drop_initial(doc, rng):
    del rng.choice(doc["components"])["initial"]


def _sys_dangling_initial(doc, rng):
    rng.choice(doc["components"])["initial"] = "no-such-state"


def _sys_transition_unknown_port(doc, rng):
    comps = [c for c in doc["components"] if c["transitions"]]
    rng.choice(rng.choice(comps)["transitions"])["port"] = "no-such-port"


def _sys_transition_unknown_state(doc, rng):
    comps = [c for c in doc["components"] if c["transitions"]]
    rng.choice(rng.choice(comps)["transitions"])["to"] = "no-such-state"


def _sys_interaction_unknown_component(doc, rng):
    a = rng.choice(doc["interactions"])
    a["ports"][0] = "ghost." + a["ports"][0].split(".", 1)[1]


def _sys_interaction_unknown_port(doc, rng):
    a = rng.choice(doc["interactions"])
    a["ports"][0] = a["ports"][0].split(".", 1)[0] + ".no-such-port"


def _sys_duplicate_interaction(doc, rng):
    a = dict(rng.choice(doc["interactions"]))
    a["name"] = "copycat"
    doc["interactions"].append(a)


def _sys_uncovered_port(doc, rng):
    rng.choice(doc["components"])["ports"].append("orphan-port")


def _sys_two_ports_one_component(doc, rng):
    comps = [c for c in doc["components"] if len(c["ports"]) >= 2]
    if not comps:
        raise LookupError
    c = rng.choice(comps)
    a = rng.choice(doc["interactions"])
    a["ports"] = [f"{c['name']}.{c['ports'][0]}", f"{c['name']}.{c['ports'][1]}"]


def _sys_ports_wrong_type(doc, rng):
    rng.choice(doc["components"])["ports"] = "not-a-list"


def _sys_empty_interactions(doc, rng):
    doc["interactions"] = []


def _dtm_drop_blank(doc, rng):
    del doc["blank"]


def _dtm_blank_in_input(doc, rng):
    doc["input_alphabet"].append(doc["blank"])


def _dtm_bad_move(doc, rng):
    rng.choice(doc["delta"])["move"] = rng.choice([0, 2, -2, "L"])


def _dtm_duplicate_row(doc, rng):
    doc["delta"].append(dict(rng.choice(doc["delta"])))


def _dtm_unknown_next_state(doc, rng):
    rng.choice(doc["delta"])["next"] = "no-such-state"


def _dtm_drop_rule(doc, rng):
    doc["delta"].pop(rng.randrange(len(doc["delta"])))


def _dtm_accept_equals_reject(doc, rng):
    doc["reject"] = doc["accept"]


def _dtm_initial_not_declared(doc, rng):
    doc["initial"] = "no-such-state"


def _dtm_unknown_field(doc, rng):
    doc["surprise"] = []


SYSTEM_MUTATIONS = [
    _sys_drop_version,
    _sys_wrong_version,
    _sys_unknown_field,
    _sys_component_unknown_field,
    _sys_drop_initial,
    _sys_dangling_initial,
    _sys_transition_unknown_port,
    _sys_transition_unknown_state,
    _sys_interaction_unknown_component,
    _sys_interaction_unknown_port,
    _sys_duplicate_interaction,
    _sys_uncovered_port,
    _sys_two_ports_one_component,
    _sys_ports_wrong_type,
    _sys_empty_interactions,
]

DTM_MUTATIONS = [
    _dtm_drop_blank,
    _dtm_blank_in_input,
    _dtm_bad_move,
    _dtm_duplicate_row,
    _dtm_unknown_next_state,
    _dtm_drop_rule,
    _dtm_accept_equals_reject,
    _dtm_initial_not_declared,
    _dtm_unknown_field,
]


def test_mutation_fuzz_never_silently_accepts():
    system_texts = [serialize_system(s) for s in system_fixtures()]
    dtm_texts = [serialize_dtm(even_a()), serialize_dtm(first_last())]
    rejected = 0
    for seed in range(1000):
        rng = random.Random(seed)
        if rng.random() < 0.7:
            text = rng.choice(system_texts)
            mutate = rng.choice(SYSTEM_MUTATIONS)
            parse = parse_system
        else:
            text = rng.choice(dtm_texts)
            mutate = rng.choice(DTM_MUTATIONS)
            parse = parse_dtm
        doc = json.loads(text)
        try:
            mutate(doc, rng)
        except LookupError:
            continue  # mutation not applicable to this fixture
        with pytest.raises((ParseError, ModelError)):
            parse(json.dumps(doc))
        rejected += 1
    assert rejected >= 950


# ------------------------------------------------------------------ refusal table
# Every document under fixtures/ and one predicate document, each broken in
# each object kind it has, and the exact outcome of parsing each broken copy:
# the `ParseError` text, `ModelError` where a machine reads but fails
# validation, or a digest of the value read.  `refusals.json` holds the table
# as the per-value reader, the one that spelled every path, wrote it; the
# readers must keep it byte for byte.

REFUSALS = Path(__file__).resolve().parent / "refusals.json"
PREDICATE_TEXT = serialize_predicates([{"S": "busy", "c1": "*"}, {"s1": "waiting"}])
RETYPED = {"int": 7, "bool": True, "null": None, "list": [], "object": {}}


class Pairs(list):
    """An object's (key, value) pairs in order, a key possibly twice."""


def _json(value) -> str:
    """JSON text of `value`; a `Pairs` is written as one object."""
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    return json.dumps(value)


def _replaced(obj: dict, key, value) -> Pairs:
    return Pairs((k, value if k == key else v) for k, v in obj.items())


def _broken(obj: dict, kind: str):
    """(label, replacement) for each broken copy of the object `obj`."""
    for key in obj:
        yield f"drop {key}", Pairs((k, v) for k, v in obj.items() if k != key)
    yield "unknown field", Pairs([*obj.items(), ("bogus", 1)])
    for key, value in obj.items():
        for name, other in RETYPED.items():
            yield f"{key} as {name}", _replaced(obj, key, other)
            if isinstance(value, list) and value:
                yield f"{key}[-1] as {name}", _replaced(obj, key, [*value[:-1], other])
    first = next(iter(obj), None)
    if first is not None:
        yield "repeated key", Pairs([*obj.items(), (first, obj[first])])
    if kind == "interaction":
        for ref in (".p", "c.", "cp"):
            yield f"reference {ref!r}", _replaced(obj, "ports", [*obj["ports"][:-1], ref])


def _objects(doc: dict):
    """(kind, location) of one object of each kind in `doc`: the top level
    and the last of every list of objects, so every object before it reads."""
    yield "top", []
    if "components" in doc:
        yield "component", ["components", -1]
        last = max(k for k, c in enumerate(doc["components"]) if c["transitions"])
        yield "transition", ["components", last, "transitions", -1]
        yield "interaction", ["interactions", -1]
    elif "delta" in doc:
        yield "delta row", ["delta", -1]
    else:
        yield "predicate", ["predicates", -1]


def _shape(value) -> str:
    """A digest of a parsed value, with its order as read; a transition set
    is sorted, since a set has no order."""
    if isinstance(value, InteractionSystem):
        value = (
            value.model.components,
            dict(value.model.ports),
            value.model.interactions,
            {c: (b.states, sorted(b.transitions), b.initial) for c, b in value.behaviors.items()},
        )
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _outcome(parse, text: str) -> str:
    try:
        return f"value {_shape(parse(text))}"
    except ParseError as e:
        return f"ParseError: {e}"
    except ModelError:  # validation's texts are its own tests' business
        return "ModelError"


def _at(doc, location: list):
    for step in location:
        doc = doc[step]
    return doc


def _put(doc: dict, location: list, value):
    """A copy of `doc` with `value` at `location`."""
    if not location:
        return value
    copy = json.loads(json.dumps(doc))
    _at(copy, location[:-1])[location[-1]] = value
    return copy


def refusal_table() -> dict[str, dict[str, str]]:
    documents = {p.name: p.read_text() for p in FIXTURE_PATHS}
    documents["predicates"] = PREDICATE_TEXT
    table = {}
    for name, text in documents.items():
        doc = json.loads(text)
        if "components" in doc:
            parse = lambda t: parse_system(t, validate=False)  # noqa: E731
        else:
            parse = parse_dtm if "delta" in doc else parse_predicates
        cases = table[name] = {"as written": _outcome(parse, text)}
        for kind, location in _objects(doc):
            obj = _at(doc, location)
            for label, broken in _broken(obj, kind):
                text = _json(_put(doc, location, broken))
                cases[f"{kind} {label}"] = _outcome(parse, text)
            if location:
                items = _at(doc, location[:-1])
                text = _json(_put(doc, location[:-1], [*items, items[-1]]))
                cases[f"{kind} repeated"] = _outcome(parse, text)
    return table


def test_refusals_are_those_of_the_per_value_reader():
    table = refusal_table()
    assert table == json.loads(REFUSALS.read_text())


# ------------------------------------------------------------------ two faults
# Documents with two faults each, and the one `ParseError` that reports the
# first: an object's type, then a field its table does not list, then a
# listed field it lacks, then each field in table order, so an object's own
# fields are checked before any object in its lists is read.  `refusals.json` holds one
# fault per document, so it cannot see this order.

SYSTEM_TEXT = serialize_system(client_server(1))
MACHINE_TEXT = serialize_dtm(even_a())
DROP = object()
FIRST_ROW = json.loads(MACHINE_TEXT)["delta"][0]
TWO_FAULTS = {
    "system: a bad component, then no array of interactions": (
        parse_system,
        SYSTEM_TEXT,
        [(["components", -1, "initial"], 7), (["interactions"], None)],
        "$.interactions: expected an array, got NoneType",
    ),
    "system: a bad version, then a field missing": (
        parse_system,
        SYSTEM_TEXT,
        [(["version"], 2), (["interactions"], DROP)],
        "$: missing field 'interactions'",
    ),
    "system: a version as text, then no array of components": (
        parse_system,
        SYSTEM_TEXT,
        [(["version"], "1"), (["components"], {})],
        "$.version: unsupported version '1'",
    ),
    "component: a bad name, then an unknown field": (
        parse_system,
        SYSTEM_TEXT,
        [(["components", 0, "name"], 7), (["components", 0, "bogus"], 1)],
        "$.components[0]: unknown field 'bogus'",
    ),
    "component: a bad transition, then a bad initial state": (
        parse_system,
        SYSTEM_TEXT,
        [(["components", 0, "transitions", 0, "to"], 3), (["components", 0, "initial"], None)],
        "$.components[0].initial: expected a string, got NoneType",
    ),
    "component: two bad components": (
        parse_system,
        SYSTEM_TEXT,
        [(["components", 1, "name"], 1), (["components", 0, "ports"], "x")],
        "$.components[0].ports: expected an array, got str",
    ),
    "transition: a bad source, then a field missing": (
        parse_system,
        SYSTEM_TEXT,
        [
            (["components", 1, "transitions", 1, "from"], []),
            (["components", 1, "transitions", 1, "to"], DROP),
        ],
        "$.components[1].transitions[1]: missing field 'to'",
    ),
    "transition: a field missing, then an unknown field": (
        parse_system,
        SYSTEM_TEXT,
        [
            (["components", 0, "transitions", 0, "to"], DROP),
            (["components", 0, "transitions", 0, "dst"], "free"),
        ],
        "$.components[0].transitions[0]: unknown field 'dst'",
    ),
    "transition: a bad target, then a bad source": (
        parse_system,
        SYSTEM_TEXT,
        [
            (["components", 0, "transitions", 1, "to"], 2),
            (["components", 0, "transitions", 1, "from"], 1),
        ],
        "$.components[0].transitions[1].from: expected a string, got int",
    ),
    "interaction: a bad name, then a bad reference": (
        parse_system,
        SYSTEM_TEXT,
        [(["interactions", 0, "name"], 5), (["interactions", 0, "ports", 1], "c1")],
        "$.interactions[0].ports[1]: port reference 'c1' must be 'component.port'",
    ),
    "interaction: a bad interaction, then a bad component": (
        parse_system,
        SYSTEM_TEXT,
        [(["interactions", 0, "ports"], None), (["components", 1, "states"], [1])],
        "$.components[1].states[0]: expected a string, got int",
    ),
    "machine: a bad delta row, then a numeric blank": (
        parse_dtm,
        MACHINE_TEXT,
        [(["delta", 3, "next"], 1), (["blank"], 0)],
        "$.blank: expected a string, got int",
    ),
    "delta row: a repeated row with a numeric next state": (
        parse_dtm,
        MACHINE_TEXT,
        [(["delta", 3], {**FIRST_ROW, "next": 1})],
        "$.delta[3].next: expected a string, got int",
    ),
    "delta row: a bool move, then a bad state": (
        parse_dtm,
        MACHINE_TEXT,
        [(["delta", 1, "move"], True), (["delta", 1, "state"], None)],
        "$.delta[1].state: expected a string, got NoneType",
    ),
    "delta row: two bad rows": (
        parse_dtm,
        MACHINE_TEXT,
        [(["delta", 2, "write"], 0), (["delta", 0, "read"], 0)],
        "$.delta[0].read: expected a string, got int",
    ),
    "predicates: a bad predicate, then a bool version": (
        parse_predicates,
        PREDICATE_TEXT,
        [(["predicates", 0, "S"], 1), (["version"], True)],
        "$.version: unsupported version True",
    ),
    "predicate: two bad states": (
        parse_predicates,
        PREDICATE_TEXT,
        [(["predicates", 0, "c1"], 2), (["predicates", 0, "S"], 1)],
        "$.predicates[0].S: expected a string, got int",
    ),
    "predicate: a predicate that is no object, then an unknown field": (
        parse_predicates,
        PREDICATE_TEXT,
        [(["predicates", 1], []), (["junk"], 0)],
        "$: unknown field 'junk'",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_the_first_of_two_faults_is_reported(case):
    parse, text, edits, message = TWO_FAULTS[case]
    doc = json.loads(text)
    for location, value in edits:
        parent = _at(doc, location[:-1])
        if value is DROP:
            del parent[location[-1]]
        else:
            parent[location[-1]] = value
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(json.dumps(doc))
