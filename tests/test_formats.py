"""Document parsing and canonical serialization: round trips, strictness,
and a seeded mutation fuzz asserting no invalid document slips through."""

import json
import random
from dataclasses import replace

import pytest

from interax import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    ParseError,
    PortId,
    canonicalize_system,
    compile_lsa,
    extend_halt_propagation,
    starify,
    validate_dtm,
    validate_system,
)
from interax.fixtures import client_server, even_a, first_last, pipeline
from interax.formats import (
    parse_dtm,
    parse_predicates,
    parse_system,
    serialize_dtm,
    serialize_predicates,
    serialize_system,
)
from interax.turing import canonicalize_dtm


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
