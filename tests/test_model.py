"""Model layer: validation rules, canonicalization."""

import contextlib
import copy
import dataclasses
import json
import pickle
import random
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from interax import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    PortId,
    explore,
    starify,
    validate_dtm,
    validate_model,
    validate_system,
)
from interax import model as model_module
from interax.fixtures import client_server, even_a, pipeline
from interax.formats import parse_dtm, parse_system, serialize_system
from interax.oracle import (
    ENGINE_EQUIVALENCE_SEEDS,
    GenParams,
    check_theorem2,
    gen_random_system,
)
from interax.reduce_linear import compile_lsa, extend_halt_propagation
from interax.semantics import compile_system

from canonical import canonicalize, canonicalize_system


def _rules(report):
    return [f.rule for f in report.findings]


class TestValidateModel:
    def test_client_server_r2_clean(self):
        assert validate_model(client_server(2).model).ok

    def test_uncovered_port(self):
        im = InteractionModel(
            components=("c",),
            ports={"c": ("x", "y")},
            interactions=(Interaction("a", (PortId("c", "y"),)),),
        )
        report = validate_model(im)
        assert _rules(report) == ["uncovered-port"]
        assert "uncovered port c.x" in report.findings[0].message

    def test_two_ports_of_one_component(self):
        im = InteractionModel(
            components=("k1", "k2"),
            ports={"k1": ("a1", "b1"), "k2": ("a2",)},
            interactions=(
                Interaction("bad", (PortId("k1", "a1"), PortId("k1", "b1"))),
                Interaction("ok", (PortId("k2", "a2"),)),
            ),
        )
        report = validate_model(im)
        assert "multi-port-component" in _rules(report)
        assert any("two ports of one component" in f.message for f in report.findings)

    def test_empty_interaction(self):
        im = InteractionModel(("c",), {"c": ()}, (Interaction("none", ()),))
        assert "empty-interaction" in _rules(validate_model(im))

    def test_duplicate_interaction(self):
        im = InteractionModel(
            ("c", "d"),
            {"c": ("x",), "d": ("y",)},
            (
                Interaction("a", (PortId("c", "x"), PortId("d", "y"))),
                Interaction("b", (PortId("d", "y"), PortId("c", "x"))),
            ),
        )
        report = validate_model(im)
        assert "duplicate-interaction" in _rules(report)
        assert any("a and b" in f.message for f in report.findings)

    def test_unknown_port_reference(self):
        im = InteractionModel(
            ("c",), {"c": ("x",)}, (Interaction("a", (PortId("c", "zzz"),)),)
        )
        report = validate_model(im)
        assert "unknown-port-ref" in _rules(report)
        assert "uncovered-port" in _rules(report)  # x itself stays uncovered

    @pytest.mark.parametrize(
        "model, rule, message",
        [
            (
                InteractionModel(
                    ("c", "c"), {"c": ("x",)}, (Interaction("a", (PortId("c", "x"),)),)
                ),
                "duplicate-component",
                "component c declared twice",
            ),
            (
                InteractionModel(
                    ("c",),
                    {"c": ("x",), "ghost": ("y",)},
                    (Interaction("a", (PortId("c", "x"),)),),
                ),
                "unknown-component-ref",
                "port family for unknown component ghost",
            ),
            (
                InteractionModel(
                    ("c", "d"),
                    {"c": ("x",), "d": ("y",)},
                    (
                        Interaction("a", (PortId("c", "x"),)),
                        Interaction("a", (PortId("d", "y"),)),
                    ),
                ),
                "duplicate-interaction-name",
                "interaction name a used more than once",
            ),
        ],
        ids=["duplicate-component", "unknown-family", "duplicate-interaction-name"],
    )
    def test_name_rules(self, model, rule, message):
        report = validate_model(model)
        assert _rules(report) == [rule]
        assert report.findings[0].message == message

    def test_empty_port_set_component_permitted(self):
        im = InteractionModel(
            ("c", "d"), {"c": (), "d": ("y",)}, (Interaction("a", (PortId("d", "y"),)),)
        )
        assert validate_model(im).ok


class TestValidateSystem:
    def test_pipeline_n3_clean(self):
        assert validate_system(pipeline(3)).ok

    def test_unknown_port_on_transition(self):
        sys = client_server(1)
        bad = LocalBehavior(
            states=("idle", "connected"),
            transitions=frozenset({("idle", "bogus", "connected")}),
            initial="idle",
        )
        broken = InteractionSystem(sys.model, {**sys.behaviors, "c1": bad})
        report = validate_system(broken)
        assert "unknown-port" in _rules(report)

    def test_missing_initial(self):
        sys = client_server(1)
        bad = LocalBehavior(
            states=("idle", "connected"),
            transitions=frozenset({("idle", "connect_1", "connected")}),
            initial="nowhere",
        )
        broken = InteractionSystem(sys.model, {**sys.behaviors, "c1": bad})
        report = validate_system(broken)
        assert "missing-initial" in _rules(report)
        assert any("missing initial" in f.message for f in report.findings)

    def test_missing_behavior(self):
        sys = client_server(1)
        behaviors = dict(sys.behaviors)
        del behaviors["c1"]
        report = validate_system(InteractionSystem(sys.model, behaviors))
        assert "behavior-component-mismatch" in _rules(report)
        # and the other way round: a behaviour for no component of the model
        extra = {**sys.behaviors, "ghost": sys.behaviors["c1"]}
        report = validate_system(InteractionSystem(sys.model, extra))
        assert _rules(report) == ["behavior-component-mismatch"]
        assert "component ghost absent from the model" in report.findings[0].message


def _loops(*ports):
    """A behavior with the one state q and a self-loop on each port."""
    return LocalBehavior(("q",), frozenset(("q", p, "q") for p in ports), "q")


def uncovered_ports_system():
    """Ports a.x, a.z and b.u are in no interaction; b is declared first."""
    model = InteractionModel(
        ("b", "a"),
        {"b": ("v", "u"), "a": ("z", "y", "x")},
        (Interaction("i", (PortId("b", "v"), PortId("a", "y"))),),
    )
    return InteractionSystem(model, {"b": _loops("v", "u"), "a": _loops("z", "y", "x")})


def repeated_components_system():
    """Interaction i lists three ports of b and two of a, b first; j lists
    two of a, one undeclared, and a component the model lacks."""
    model = InteractionModel(
        ("a", "b", "c"),
        {"a": ("x", "y"), "b": ("u", "v", "w"), "c": ("p",)},
        (
            Interaction(
                "i",
                tuple(
                    PortId(c, port)
                    for c, port in (
                        ("b", "u"), ("a", "x"), ("c", "p"), ("b", "v"), ("a", "y"), ("b", "w"),
                    )
                ),
            ),
            Interaction("j", (PortId("a", "x"), PortId("a", "zz"), PortId("d", "p"))),
        ),
    )
    return InteractionSystem(
        model, {"a": _loops("x", "y"), "b": _loops("u", "v", "w"), "c": _loops("p")}
    )


def repeated_states_system():
    """k lists q2 and q1 twice each; m lists the wildcard * twice."""
    model = InteractionModel(
        ("k", "m"),
        {"k": ("a",), "m": ("a",)},
        (Interaction("i", (PortId("k", "a"), PortId("m", "a"))),),
    )
    return InteractionSystem(
        model,
        {
            "k": LocalBehavior(("q2", "q1", "q0", "q1", "q2", "q3"), frozenset(), "q0"),
            "m": LocalBehavior(("*", "q", "*"), frozenset({("q", "a", "q")}), "q"),
        },
    )


def bad_rows_system():
    """Eight rows of one behavior, six of them bad, listed unsorted."""
    model = InteractionModel(
        ("k",),
        {"k": ("p", "r")},
        (Interaction("i", (PortId("k", "p"),)), Interaction("j", (PortId("k", "r"),))),
    )
    rows = [
        ("q1", "p", "q0"), ("zz", "p", "q0"), ("q0", "bad", "q1"), ("q1", "r", "nowhere"),
        ("a", "worse", "q9"), ("q0", "r", "q0"), ("q0", "bad", "b"), ("m", "p", "q1"),
    ]
    return InteractionSystem(model, {"k": LocalBehavior(("q0", "q1"), frozenset(rows), "q0")})


def untyped_rows_system():
    """Rows with an int or None field cannot be sorted with the others, so
    their messages go in the order of the rows' text."""
    rows = {("q", "p", "q"), (0, "p", "q"), ("q", 1, "q"), ("q", "p", None)}
    model = InteractionModel(("k",), {"k": ("p",)}, (Interaction("i", (PortId("k", "p"),)),))
    return InteractionSystem(model, {"k": LocalBehavior(("q",), frozenset(rows), "q")})


def mixed_findings_system():
    """Model and behavior findings of most rules in one system."""
    model = InteractionModel(
        ("s", "t", "u", "w"),
        {"s": ("a", "b", "a"), "t": ("c", ""), "u": (), "ghost": ("g",)},
        (
            Interaction("i", (PortId("s", "a"), PortId("t", "c"))),
            Interaction("i", (PortId("t", "c"), PortId("s", "a"))),
            Interaction("none", ()),
            Interaction("j", (PortId("t", "d"), PortId("x", "e"))),
        ),
    )
    behaviors = {
        "s": LocalBehavior(
            ("s0", "s1", "s0"), frozenset({("s0", "a", "s1"), ("s1", "c", "s0")}), "s9"
        ),
        "t": LocalBehavior(("t0", 1, 2), frozenset({("t0", "c", "t0")}), "t0"),
        "v": LocalBehavior(("v0",), frozenset(), "v0"),
        "u": LocalBehavior(("u0",), frozenset({("u0", "a", "x")}), "u0"),
    }
    return InteractionSystem(model, behaviors)


# (rule, message) in report order, as captured before validation made one
# pass over its rules: the findings, their wording and their order are kept
GOLDEN_FINDINGS = {
    uncovered_ports_system: [
        ("uncovered-port", "uncovered port a.x"),
        ("uncovered-port", "uncovered port a.z"),
        ("uncovered-port", "uncovered port b.u"),
    ],
    repeated_components_system: [
        ("multi-port-component", "interaction i has two ports of one component (b)"),
        ("multi-port-component", "interaction i has two ports of one component (a)"),
        ("unknown-port-ref", "interaction j references unknown port a.zz"),
        ("unknown-component-ref", "interaction j references unknown component d"),
        ("multi-port-component", "interaction j has two ports of one component (a)"),
    ],
    repeated_states_system: [
        ("duplicate-state", "component k declares state q1 twice"),
        ("duplicate-state", "component k declares state q2 twice"),
        ("duplicate-state", "component m declares state * twice"),
        ("wildcard-state", "component m declares the state name *"),
    ],
    bad_rows_system: [
        ("unknown-transition-state", "component k: transition a --worse--> q9 uses an unknown state"),
        ("unknown-port", "component k: transition a --worse--> q9 uses unknown port worse"),
        ("unknown-transition-state", "component k: transition m --p--> q1 uses an unknown state"),
        ("unknown-transition-state", "component k: transition q0 --bad--> b uses an unknown state"),
        ("unknown-port", "component k: transition q0 --bad--> b uses unknown port bad"),
        ("unknown-port", "component k: transition q0 --bad--> q1 uses unknown port bad"),
        ("unknown-transition-state", "component k: transition q1 --r--> nowhere uses an unknown state"),
        ("unknown-transition-state", "component k: transition zz --p--> q0 uses an unknown state"),
    ],
    untyped_rows_system: [
        ("unknown-transition-state", "component k: transition q --p--> None uses an unknown state"),
        ("unknown-port", "component k: transition q --1--> q uses unknown port 1"),
        ("unknown-transition-state", "component k: transition 0 --p--> q uses an unknown state"),
    ],
    mixed_findings_system: [
        ("unknown-component-ref", "port family for unknown component ghost"),
        ("duplicate-port", "component s declares port a twice"),
        ("empty-name", "component t declares an empty port name"),
        ("duplicate-interaction-name", "interaction name i used more than once"),
        ("duplicate-interaction", "interactions i and i have identical port sets"),
        ("empty-interaction", "interaction none has no ports"),
        ("unknown-port-ref", "interaction j references unknown port t.d"),
        ("unknown-component-ref", "interaction j references unknown component x"),
        ("uncovered-port", "uncovered port s.b"),
        ("uncovered-port", "uncovered port t."),
        ("behavior-component-mismatch", "behavior given for component v absent from the model"),
        ("duplicate-state", "component s declares state s0 twice"),
        ("missing-initial", "component s: missing initial state s9"),
        ("unknown-port", "component s: transition s1 --c--> s0 uses unknown port c"),
        ("non-string-name", "component t: state name 1 is not a string"),
        ("non-string-name", "component t: state name 2 is not a string"),
        ("unknown-transition-state", "component u: transition u0 --a--> x uses an unknown state"),
        ("unknown-port", "component u: transition u0 --a--> x uses unknown port a"),
        ("behavior-component-mismatch", "component w has no behavior"),
    ],
}


@pytest.mark.parametrize("build", GOLDEN_FINDINGS, ids=lambda f: f.__name__)
def test_golden_findings(build):
    system = build()
    for _ in range(2):
        # an invalid system is checked afresh on every call
        findings = [(f.rule, f.message) for f in validate_system(system).findings]
        assert findings == GOLDEN_FINDINGS[build]


def _rename(im, component, port=None, new=""):
    """`im` with `component`, or that component's `port`, renamed to `new`
    in every place that names it."""

    def renamed(p):
        if p.component != component or port not in (None, p.port):
            return p
        return PortId(new, p.port) if port is None else PortId(component, new)

    families = dict(im.ports)
    components = im.components
    if port is None:
        components = tuple(new if c == component else c for c in components)
        families[new] = families.pop(component)
    else:
        families[component] = tuple(new if p == port else p for p in families[component])
    interactions = [Interaction(a.name, tuple(map(renamed, a.ports))) for a in im.interactions]
    return InteractionModel(components, families, tuple(interactions))


def _with(im, component=None, ports=(), interaction=None):
    """`im` with `ports` appended to `component`'s family and `interaction`
    appended to the interactions."""
    families = dict(im.ports)
    if component is not None:
        families[component] = (*families.get(component, ()), *ports)
    extra = () if interaction is None else (interaction,)
    return InteractionModel(im.components, families, (*im.interactions, *extra))


# (rule, mutation) per case: each mutation of a clean model `im` adds one
# fault at its component c, c's first port p and its interaction a.  The
# first thirteen break each rule of the model in turn; the last two repeat
# a port set in other ways
MODEL_MUTATIONS = {
    "duplicate-component": (
        "duplicate-component",
        lambda im, c, p, a: dataclasses.replace(im, components=(*im.components, c)),
    ),
    "dotted-component-name": (
        "dotted-component-name",
        lambda im, c, p, a: _rename(im, c, new=f"{c}.x"),
    ),
    "empty-component-name": ("empty-name", lambda im, c, p, a: _rename(im, c)),
    "family-of-unknown-component": (
        "unknown-component-ref",
        lambda im, c, p, a: _with(im, "ghost"),
    ),
    "duplicate-port": ("duplicate-port", lambda im, c, p, a: _with(im, c, (p,))),
    "empty-port-name": ("empty-name", lambda im, c, p, a: _rename(im, c, p)),
    "duplicate-interaction-name": (
        "duplicate-interaction-name",
        lambda im, c, p, a: _with(im, c, ("fresh",), Interaction(a.name, (PortId(c, "fresh"),))),
    ),
    "empty-interaction": (
        "empty-interaction",
        lambda im, c, p, a: _with(im, interaction=Interaction("extra", ())),
    ),
    "ref-to-unknown-component": (
        "unknown-component-ref",
        lambda im, c, p, a: _with(im, interaction=Interaction("extra", (PortId("ghost", "g"),))),
    ),
    "unknown-port-ref": (
        "unknown-port-ref",
        lambda im, c, p, a: _with(im, interaction=Interaction("extra", (PortId(c, "undeclared"),))),
    ),
    "multi-port-component": (
        "multi-port-component",
        lambda im, c, p, a: _with(
            im, c, ("m1", "m2"), Interaction("extra", (PortId(c, "m1"), PortId(c, "m2")))
        ),
    ),
    "duplicate-interaction": (
        "duplicate-interaction",
        lambda im, c, p, a: _with(im, interaction=Interaction("extra", a.ports[::-1])),
    ),
    "uncovered-port": ("uncovered-port", lambda im, c, p, a: _with(im, c, ("spare",))),
    "port-listed-twice": (
        "multi-port-component",
        lambda im, c, p, a: _with(im, interaction=Interaction("extra", (PortId(c, p),) * 2)),
    ),
    "equal-port-set": (
        "duplicate-interaction",
        lambda im, c, p, a: _with(im, interaction=Interaction("extra", a.ports)),
    ),
}


def mutant(im, case, k):
    """`im` with the fault of `case` placed by k: at the k-th component that
    has ports and the k-th interaction, both counted cyclically."""
    owners = [c for c in im.components if im.ports.get(c)]
    c = owners[k % len(owners)]
    a = im.interactions[k % len(im.interactions)]
    return MODEL_MUTATIONS[case][1](im, c, im.ports[c][0], a)


MUTATED_BASES = {
    "client_server(2)": lambda: client_server(2),
    "pipeline(3)": lambda: pipeline(3),
    "compile_lsa(even_a,aaaa)": lambda: compile_lsa(even_a(), "aaaa"),
}


# (rule, message) in report order for each mutant, as captured before the
# model rules settled the clean case with set-level tests
GOLDEN_MUTANT_FINDINGS = {
    "client_server(2)": {
        "duplicate-component": [("duplicate-component", "component c1 declared twice")],
        "dotted-component-name": [("dotted-component-name", "component name c1.x contains '.'")],
        "empty-component-name": [("empty-name", "a component name is empty")],
        "family-of-unknown-component": [
            ("unknown-component-ref", "port family for unknown component ghost"),
        ],
        "duplicate-port": [("duplicate-port", "component c1 declares port connect_1 twice")],
        "empty-port-name": [("empty-name", "component c1 declares an empty port name")],
        "duplicate-interaction-name": [
            ("duplicate-interaction-name", "interaction name disconnect_S_c1 used more than once"),
        ],
        "empty-interaction": [("empty-interaction", "interaction extra has no ports")],
        "ref-to-unknown-component": [
            ("unknown-component-ref", "interaction extra references unknown component ghost"),
        ],
        "unknown-port-ref": [
            ("unknown-port-ref", "interaction extra references unknown port c1.undeclared"),
        ],
        "multi-port-component": [
            ("multi-port-component", "interaction extra has two ports of one component (c1)"),
        ],
        "duplicate-interaction": [
            ("duplicate-interaction", "interactions disconnect_S_c1 and extra have identical port sets"),
        ],
        "uncovered-port": [("uncovered-port", "uncovered port c1.spare")],
        "port-listed-twice": [
            ("multi-port-component", "interaction extra has two ports of one component (c1)"),
        ],
        "equal-port-set": [
            ("duplicate-interaction", "interactions disconnect_S_c1 and extra have identical port sets"),
        ],
    },
    "pipeline(3)": {
        "duplicate-component": [("duplicate-component", "component s2 declared twice")],
        "dotted-component-name": [("dotted-component-name", "component name s2.x contains '.'")],
        "empty-component-name": [("empty-name", "a component name is empty")],
        "family-of-unknown-component": [
            ("unknown-component-ref", "port family for unknown component ghost"),
        ],
        "duplicate-port": [("duplicate-port", "component s2 declares port rec_m_2 twice")],
        "empty-port-name": [("empty-name", "component s2 declares an empty port name")],
        "duplicate-interaction-name": [
            ("duplicate-interaction-name", "interaction name send_message_2 used more than once"),
        ],
        "empty-interaction": [("empty-interaction", "interaction extra has no ports")],
        "ref-to-unknown-component": [
            ("unknown-component-ref", "interaction extra references unknown component ghost"),
        ],
        "unknown-port-ref": [
            ("unknown-port-ref", "interaction extra references unknown port s2.undeclared"),
        ],
        "multi-port-component": [
            ("multi-port-component", "interaction extra has two ports of one component (s2)"),
        ],
        "duplicate-interaction": [
            ("duplicate-interaction", "interactions send_message_2 and extra have identical port sets"),
        ],
        "uncovered-port": [("uncovered-port", "uncovered port s2.spare")],
        "port-listed-twice": [
            ("multi-port-component", "interaction extra has two ports of one component (s2)"),
        ],
        "equal-port-set": [
            ("duplicate-interaction", "interactions send_message_2 and extra have identical port sets"),
        ],
    },
    "compile_lsa(even_a,aaaa)": {
        "duplicate-component": [("duplicate-component", "component 1 declared twice")],
        "dotted-component-name": [("dotted-component-name", "component name 1.x contains '.'")],
        "empty-component-name": [("empty-name", "a component name is empty")],
        "family-of-unknown-component": [
            ("unknown-component-ref", "port family for unknown component ghost"),
        ],
        "duplicate-port": [("duplicate-port", "component 1 declares port A:even:a twice")],
        "empty-port-name": [("empty-name", "component 1 declares an empty port name")],
        "duplicate-interaction-name": [
            ("duplicate-interaction-name", "interaction name mv:even:a:1:2 used more than once"),
        ],
        "empty-interaction": [("empty-interaction", "interaction extra has no ports")],
        "ref-to-unknown-component": [
            ("unknown-component-ref", "interaction extra references unknown component ghost"),
        ],
        "unknown-port-ref": [
            ("unknown-port-ref", "interaction extra references unknown port 1.undeclared"),
        ],
        "multi-port-component": [
            ("multi-port-component", "interaction extra has two ports of one component (1)"),
        ],
        "duplicate-interaction": [
            ("duplicate-interaction", "interactions mv:even:a:1:2 and extra have identical port sets"),
        ],
        "uncovered-port": [("uncovered-port", "uncovered port 1.spare")],
        "port-listed-twice": [
            ("multi-port-component", "interaction extra has two ports of one component (1)"),
        ],
        "equal-port-set": [
            ("duplicate-interaction", "interactions mv:even:a:1:2 and extra have identical port sets"),
        ],
    },
}


@pytest.mark.parametrize("case", MODEL_MUTATIONS)
@pytest.mark.parametrize("base", GOLDEN_MUTANT_FINDINGS)
def test_golden_mutant_findings(base, case):
    im = mutant(MUTATED_BASES[base]().model, case, 1)
    findings = [(f.rule, f.message) for f in validate_model(im).findings]
    assert findings == GOLDEN_MUTANT_FINDINGS[base][case]


def test_seeded_mutants_report_their_rule():
    for seed in range(200):
        system = gen_random_system(GenParams(seed=seed))
        assert validate_system(system).ok, seed
        rng = random.Random(seed)
        case = rng.choice(sorted(MODEL_MUTATIONS))
        rules = _rules(validate_model(mutant(system.model, case, rng.randrange(64))))
        assert MODEL_MUTATIONS[case][0] in rules, (seed, case)


def line_with(replace_cells):
    """compile_lsa(even_a(), "aaaa"), whose inner cells 1-4 share one port
    family and one transition set, with the behaviors that
    `replace_cells(behaviors)` maps cells to."""
    system = compile_lsa(even_a(), "aaaa")
    behaviors = system.behaviors
    return InteractionSystem(system.model, {**behaviors, **replace_cells(behaviors)})


def _own_bad_row(behaviors):
    b = behaviors["2"]
    row = ("nowhere", "A:even:a", b.states[0])
    return {"2": dataclasses.replace(b, transitions=b.transitions | {row})}


def _shared_wildcard(behaviors):
    bad = dataclasses.replace(behaviors["1"], states=(*behaviors["1"].states, "*"))
    return {"4": bad, "1": bad, "3": bad}


# (rule, message) in report order, as captured before cells sharing one
# behavior were checked once per call
SHARED_BEHAVIOR_FINDINGS = {
    "own-faulty-behavior": (
        _own_bad_row,
        [
            (
                "unknown-transition-state",
                "component 2: transition nowhere --A:even:a--> even,a uses an unknown state",
            ),
        ],
    ),
    "shared-faulty-behavior": (
        _shared_wildcard,
        [
            ("wildcard-state", "component 1 declares the state name *"),
            ("wildcard-state", "component 3 declares the state name *"),
            ("wildcard-state", "component 4 declares the state name *"),
        ],
    ),
    "initial-outside-shared-states": (
        lambda behaviors: {"3": dataclasses.replace(behaviors["3"], initial="nowhere")},
        [("missing-initial", "component 3: missing initial state nowhere")],
    ),
    "shared-behavior-under-another-family": (
        lambda behaviors: {"5": behaviors["1"]},
        [
            ("unknown-port", f"component 5: transition {row} uses unknown port {port}")
            for row, port in (
                ("even,a --L:even:a--> s,a", "L:even:a"),
                ("odd,a --L:odd:a--> s,a", "L:odd:a"),
                ("s,a --A:even:b--> accept,a", "A:even:b"),
                ("s,a --A:odd:b--> reject,a", "A:odd:b"),
                ("s,b --A:even:b--> accept,b", "A:even:b"),
                ("s,b --A:odd:b--> reject,b", "A:odd:b"),
            )
        ],
    ),
}


@pytest.mark.parametrize("case", SHARED_BEHAVIOR_FINDINGS)
def test_cells_sharing_a_behavior(case):
    replace_cells, expected = SHARED_BEHAVIOR_FINDINGS[case]
    system = line_with(replace_cells)
    for _ in range(2):
        assert [(f.rule, f.message) for f in validate_system(system).findings] == expected


def count_rule_checks(monkeypatch):
    """Record the model of every run of the model rules, the first check
    of a full validation."""
    calls = []
    original = model_module._model_rules

    def counted(im):
        calls.append(im)
        return original(im)

    monkeypatch.setattr(model_module, "_model_rules", counted)
    return calls


class TestValidationMemo:
    def test_one_object_through_every_stage_is_checked_once(self, monkeypatch):
        calls = count_rule_checks(monkeypatch)
        system = parse_system(serialize_system(pipeline(3)))
        starify(system)
        assert check_theorem2(system).agree
        compile_system(system)
        assert len(calls) == 1 and calls[0] is system.model

    def test_later_calls_return_a_fresh_empty_report(self):
        system = pipeline(2)
        first = validate_system(system)
        again = validate_system(system)
        assert first.ok and again.ok and again is not first
        again.add("x", "a finding added by the caller")
        assert validate_system(system).ok

    def test_invalid_system_raises_the_same_error_every_call(self, monkeypatch):
        calls = count_rule_checks(monkeypatch)
        system = mixed_findings_system()
        messages = []
        for call in (starify, compile_system, starify):
            with pytest.raises(ModelError) as raised:
                call(system)
            messages.append(str(raised.value))
        assert len(set(messages)) == 1
        assert messages[0].startswith("invalid system: unknown-component-ref: ")
        assert len(calls) == 3

    def test_copies_are_validated_afresh(self, monkeypatch):
        system = client_server(2)
        assert validate_system(system).ok
        calls = count_rule_checks(monkeypatch)
        copies = [
            pickle.loads(pickle.dumps(system)),
            copy.deepcopy(system),
            dataclasses.replace(system),
        ]
        for twin in copies:
            assert twin == system
            assert validate_system(twin).ok and validate_system(twin).ok
        assert validate_system(system).ok
        assert len(calls) == len(copies)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_documents(key):
    """The text of each fixture document that has the field `key`."""
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        if key in json.loads(text):
            yield text


def scans_names(system):
    """Whether `refuse_untyped` scans the names of `system`, as it does for
    every system but one marked typed where it was built."""
    with mock.patch.object(
        model_module, "_non_port_ids", wraps=model_module._non_port_ids
    ) as scan, contextlib.suppress(ModelError):
        model_module.refuse_untyped(system, "check")
    return scan.called


def written(system):
    """The document `serialize_system` writes for `system`, or its refusal."""
    try:
        return serialize_system(system)
    except ModelError as e:
        return f"refused: {e}"


def marked_systems(family):
    """The systems a typed builder makes, by family."""
    if family == "parsed fixtures":
        yield from map(parse_system, fixture_documents("components"))
    elif family.startswith("random"):
        for seed in ENGINE_EQUIVALENCE_SEEDS:
            system = gen_random_system(GenParams(seed=seed))
            yield starify(system) if family == "random, starified" else system
    else:
        for machine in map(parse_dtm, fixture_documents("delta")):
            for n in range(7):
                for word in map("".join, product(machine.input_alphabet, repeat=n)):
                    if family == "compile_lsa":
                        yield compile_lsa(machine, word)
                    else:
                        yield extend_halt_propagation(machine, word)[0]


class Fake:
    """Not a string, but hashes and compares equal to "q"."""

    def __eq__(self, other):
        return other == "q"

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "Fake()"


class TestTypedMark:
    @pytest.mark.parametrize(
        "family",
        [
            "parsed fixtures",
            "random",
            "random, starified",
            "compile_lsa",
            "extend_halt_propagation",
        ],
    )
    def test_the_mark_never_changes_an_answer(self, family):
        count = 0
        for system in marked_systems(family):
            # a copy is rebuilt through `__reduce__`, so it starts unmarked
            twin = copy.copy(system)
            assert not scans_names(system) and scans_names(twin)
            model_module.refuse_untyped(twin, "serialize")
            assert validate_system(twin).findings == validate_system(system).findings
            assert written(twin) == written(system)
            count += 1
        assert count > 0

    def test_a_name_equal_to_a_string_is_not_marked(self):
        b = LocalBehavior(("q",), frozenset({("q", "p", Fake())}), "q")
        model = InteractionModel(("a",), {"a": ("p",)}, (Interaction("i", (PortId("a", "p"),)),))
        system = InteractionSystem(model, {"a": b})
        # the transition target passes every membership test; the last scan
        # of validation finds it, so nothing accepts the system
        assert scans_names(system)
        assert [str(f) for f in validate_system(system).findings] == [
            "non-string-name: name Fake() is not a string"
        ]
        for call in (starify, explore, compile_system):
            with pytest.raises(ModelError, match=r"^invalid system: non-string-name: name Fake\(\) is not a string$"):
                call(system)
        with pytest.raises(ModelError, match=r"^cannot serialize: name Fake\(\) is not a string$"):
            serialize_system(system)

    def test_validation_scans_the_names_of_an_unmarked_system_only(self):
        system = parse_system(serialize_system(client_server(2)), validate=False)
        with mock.patch.object(model_module, "_names", wraps=model_module._names) as scan:
            assert validate_system(system).ok
            assert not scan.called
            assert validate_system(copy.copy(system)).ok
            assert scan.call_count == 1

    @pytest.mark.parametrize(
        "field", ["port-family key", "PortId field", "behavior key", "initial", "transition source"]
    )
    def test_every_name_equal_to_a_string_is_found(self, field):
        # one component "q" with state "q" and port "p": Fake() takes the
        # place of one "q"
        fake = Fake()
        b = LocalBehavior(
            ("q",),
            frozenset({(fake if field == "transition source" else "q", "p", "q")}),
            fake if field == "initial" else "q",
        )
        model = InteractionModel(
            ("q",),
            {fake if field == "port-family key" else "q": ("p",)},
            (Interaction("i", (PortId(fake if field == "PortId field" else "q", "p"),)),),
        )
        system = InteractionSystem(model, {fake if field == "behavior key" else "q": b})
        assert [str(f) for f in validate_system(system).findings] == [
            "non-string-name: name Fake() is not a string"
        ]
        with pytest.raises(ModelError, match=r"^cannot serialize: name Fake\(\) is not a string$"):
            serialize_system(system)

    def test_an_invalid_document_parsed_without_validation_is_marked(self):
        doc = {
            "version": 1,
            "components": [
                {
                    "name": "b",
                    "ports": ["p", "p"],
                    "states": ["q", "*", "q"],
                    "initial": "r",
                    "transitions": [{"from": "q", "port": "x", "to": "z"}],
                },
                {"name": "a.c", "ports": [], "states": [], "initial": "q", "transitions": []},
            ],
            "interactions": [{"ports": ["a.c.p"]}, {"name": "i", "ports": ["b.y", "b.p"]}],
        }
        system = parse_system(json.dumps(doc), validate=False)
        assert not scans_names(system)
        assert not validate_system(system).ok
        assert validate_system(copy.copy(system)).findings == validate_system(system).findings
        canonical = {
            "version": 1,
            "components": [
                {"name": "a.c", "ports": [], "states": [], "initial": "q", "transitions": []},
                {
                    "name": "b",
                    "ports": ["p", "p"],
                    "states": ["*", "q", "q"],
                    "initial": "r",
                    "transitions": [{"from": "q", "port": "x", "to": "z"}],
                },
            ],
            "interactions": [
                {"name": "alpha_0", "ports": ["a.c.p"]},
                {"name": "i", "ports": ["b.p", "b.y"]},
            ],
        }
        assert serialize_system(system) == json.dumps(canonical, sort_keys=True, indent=2) + "\n"


def dotted_system():
    """Components a.b (port x) and a (port b.x): both ports read "a.b.x"."""
    b = LocalBehavior(("q0",), frozenset({("q0", "x", "q0")}), "q0")
    c = LocalBehavior(("q0",), frozenset({("q0", "b.x", "q0")}), "q0")
    model = InteractionModel(
        ("a.b", "a"),
        {"a.b": ("x",), "a": ("b.x",)},
        (
            Interaction("i", (PortId("a.b", "x"),)),
            Interaction("j", (PortId("a", "b.x"),)),
        ),
    )
    return InteractionSystem(model, {"a.b": b, "a": c})


class TestDottedComponentName:
    def test_reported(self):
        report = validate_system(dotted_system())
        assert _rules(report) == ["dotted-component-name"]
        assert "a.b" in report.findings[0].message

    def test_starify_refuses(self):
        # the hub ports ok:/nok:/fire:a.b.x would name both a.b.x and a.(b.x)
        with pytest.raises(ModelError, match="dotted-component-name"):
            starify(dotted_system())

    def test_empty_names_reported(self):
        # ".x" and "k." are no port reference, so no document can hold them
        b = LocalBehavior(("q0",), frozenset({("q0", "x", "q0")}), "q0")
        k = LocalBehavior(("q0",), frozenset({("q0", "", "q0")}), "q0")
        model = InteractionModel(
            ("", "k"),
            {"": ("x",), "k": ("",)},
            (
                Interaction("i", (PortId("", "x"),)),
                Interaction("j", (PortId("k", ""),)),
            ),
        )
        system = InteractionSystem(model, {"": b, "k": k})
        report = validate_system(system)
        assert [str(f) for f in report.findings] == [
            "empty-name: a component name is empty",
            "empty-name: component k declares an empty port name",
        ]
        with pytest.raises(ModelError, match="empty-name"):
            starify(system)


def one_port_system(component="k", port="p", states=("q",), transitions=None):
    """One component with one port in one interaction, names as given; each
    state's only transition is a self-loop on the port."""
    if transitions is None:
        transitions = {(q, port, q) for q in states}
    b = LocalBehavior(states, frozenset(transitions), states[0])
    model = InteractionModel(
        (component,),
        {component: (port,)},
        (Interaction("i", (PortId(component, port),)),),
    )
    return InteractionSystem(model, {component: b})


def mixed_component_system():
    """Components "a" and 7, which cannot be sorted together."""
    return InteractionSystem(
        InteractionModel(
            ("a", 7),
            {"a": ("p",), 7: ("p",)},
            (
                Interaction("i", (PortId("a", "p"),)),
                Interaction("j", (PortId(7, "p"),)),
            ),
        ),
        {c: one_port_system(c).behaviors[c] for c in ("a", 7)},
    )


class TestNonStringName:
    def test_int_component_is_a_finding(self):
        report = validate_system(one_port_system(component=7))
        assert [str(f) for f in report.findings] == [
            "non-string-name: component name 7 is not a string"
        ]

    def test_behaviors_for_absent_components_of_mixed_types(self):
        sys = one_port_system()
        b = sys.behaviors["k"]
        extra = InteractionSystem(sys.model, {"k": b, 7: b, "ghost": b})
        assert [str(f) for f in validate_system(extra).findings] == [
            "behavior-component-mismatch: behavior given for component 7 absent from the model",
            "behavior-component-mismatch: behavior given for component ghost absent from the model",
        ]

    def test_int_states_are_findings(self):
        # they used to validate clean, and their document did not parse
        report = validate_system(one_port_system(states=(0, 1)))
        assert [str(f) for f in report.findings] == [
            "non-string-name: component k: state name 0 is not a string",
            "non-string-name: component k: state name 1 is not a string",
        ]
        with pytest.raises(ModelError, match="non-string-name"):
            starify(one_port_system(states=(0, 1)))

    def test_port_and_interaction_names(self):
        b = LocalBehavior(("q",), frozenset({("q", 5, "q")}), "q")
        model = InteractionModel(
            ("k",), {"k": (5, True)}, (Interaction(None, (PortId("k", 5),)),)
        )
        report = validate_system(InteractionSystem(model, {"k": b}))
        assert [str(f) for f in report.findings] == [
            "non-string-name: port name 5 is not a string",
            "non-string-name: port name True is not a string",
            "non-string-name: interaction name None is not a string",
        ]

    @pytest.mark.parametrize(
        "system, rules, name",
        [
            (mixed_component_system(), ["non-string-name"], "7"),
            (
                one_port_system(transitions={("q", "p", "q"), (0, "p", "q")}),
                ["unknown-transition-state"],
                "0",
            ),
            (one_port_system(states=(0, 1)), ["non-string-name"] * 2, "0"),
        ],
        ids=["mixed-components", "transition-field", "int-states"],
    )
    def test_serialize_refuses_non_string_names(self, system, rules, name):
        # the mixed ones used to raise TypeError from sorting; the int states
        # were written to a document that does not parse
        assert _rules(validate_system(system)) == rules
        with pytest.raises(ModelError, match=f"^cannot serialize: name {name} is not a string$"):
            serialize_system(system)

    @pytest.mark.parametrize(
        "value, name",
        [
            (mixed_component_system().model, "7"),
            (mixed_component_system(), "7"),
            (one_port_system(states=("q", 0)), "0"),
        ],
        ids=["mixed-components-model", "mixed-components", "mixed-states"],
    )
    def test_canonicalize_refuses_mixed_names(self, value, name):
        # sorting them used to raise TypeError
        call = canonicalize if isinstance(value, InteractionModel) else canonicalize_system
        with pytest.raises(ModelError, match=f"^cannot canonicalize: name {name} is not a string$"):
            call(value)

    def test_canonicalize_sorts_int_names_and_keeps_findings(self):
        system = one_port_system(component=7, states=(1, 0))
        canonical = canonicalize_system(system)
        assert canonical.behaviors[7].states == (0, 1)
        assert canonical.model.components == (7,)
        findings = [sorted(map(str, validate_system(x).findings)) for x in (canonical, system)]
        assert findings[0] == findings[1] != []

    def test_undeclared_names_in_transitions_are_unknown(self):
        # string states, but transitions that name an int state or port:
        # they cannot be sorted with the others, so the rows go in the order
        # of their text, and they are reported as unknown
        system = one_port_system(
            states=("q",), transitions={("q", "p", "q"), (0, "p", "q"), ("q", 1, "q")}
        )
        assert _rules(validate_system(system)) == [
            "unknown-port",
            "unknown-transition-state",
        ]

    @pytest.mark.parametrize("value", [5, ["q"]], ids=["hashable", "unhashable"])
    @pytest.mark.parametrize("field", ["initial", "PortId port", "PortId component"])
    def test_undeclared_initials_and_port_refs_are_unknown(self, field, value):
        # a value that is no name, hashable or not, is reported as unknown;
        # the unhashable one used to raise TypeError from every validating call
        b = LocalBehavior(
            ("q",), frozenset({("q", "p", "q")}), value if field == "initial" else "q"
        )
        port = PortId(
            value if field == "PortId component" else "k",
            value if field == "PortId port" else "p",
        )
        model = InteractionModel(("k",), {"k": ("p",)}, (Interaction("i", (port,)),))
        system = InteractionSystem(model, {"k": b})
        expected = {
            "initial": [f"missing-initial: component k: missing initial state {value}"],
            "PortId port": [
                f"unknown-port-ref: interaction i references unknown port k.{value}",
                "uncovered-port: uncovered port k.p",
            ],
            "PortId component": [
                f"unknown-component-ref: interaction i references unknown component {value}",
                "uncovered-port: uncovered port k.p",
            ],
        }[field]
        assert [str(f) for f in validate_system(system).findings] == expected
        model_findings = [] if field == "initial" else expected
        assert [str(f) for f in validate_model(model).findings] == model_findings
        with pytest.raises(ModelError) as raised:
            explore(system)
        assert str(raised.value) == f"invalid system: {'; '.join(expected)}"


def plain_port_model(*entries):
    """Component "a" with port "p" in one interaction "i" listing `entries`."""
    return InteractionModel(("a",), {"a": ("p",)}, (Interaction("i", entries),))


class TestNonPortId:
    def test_plain_string_port_is_a_finding(self):
        # it used to raise AttributeError from reading `p.component`
        model = plain_port_model("a.p", PortId("a", "p"))
        assert [str(f) for f in validate_model(model).findings] == [
            "non-port-id: interaction i lists 'a.p', which is not a PortId"
        ]

    def test_reported_alone_for_every_entry(self):
        # a lone string would also leave port a.p uncovered; that is not reported
        model = plain_port_model("a.p", ("a", "p"), 5)
        assert [str(f) for f in validate_model(model).findings] == [
            "non-port-id: interaction i lists 'a.p', which is not a PortId",
            "non-port-id: interaction i lists ('a', 'p'), which is not a PortId",
            "non-port-id: interaction i lists 5, which is not a PortId",
        ]

    def test_system_with_a_plain_port_is_refused(self):
        b = LocalBehavior(("q",), frozenset({("q", "p", "q")}), "q")
        system = InteractionSystem(plain_port_model("a.p"), {"a": b})
        assert _rules(validate_system(system)) == ["non-port-id"]
        with pytest.raises(ModelError, match="non-port-id"):
            explore(system)

    def test_reported_before_and_without_other_findings(self):
        # a component 9 used to be reported first, with its missing behavior
        base = pipeline(2)
        model = InteractionModel(
            (*base.model.components, 9),
            base.model.ports,
            (*base.model.interactions, Interaction("i", ("s1.x",))),
        )
        system = InteractionSystem(model, base.behaviors)
        message = "interaction i lists 's1.x', which is not a PortId"
        for report in (validate_model(model), validate_system(system)):
            assert [str(f) for f in report.findings] == [f"non-port-id: {message}"]
        with pytest.raises(
            ModelError,
            match="^cannot serialize: interaction 'i' lists 's1.x', which is not a PortId$",
        ):
            serialize_system(system)

    @pytest.mark.parametrize(
        "entries, shown",
        [(("a.p", PortId("a", "p")), "'a.p'"), ((PortId("a", "p"), 5), "5")],
        ids=["string", "int"],
    )
    def test_canonicalize_refuses_entries_it_cannot_sort(self, entries, shown):
        # sorting them used to raise TypeError
        with pytest.raises(
            ModelError,
            match=rf"^cannot canonicalize: interaction 'i' lists {shown}, which is not a PortId$",
        ):
            canonicalize(plain_port_model(*entries))

    @pytest.mark.parametrize(
        "entry, shown",
        [("a.p", "'a.p'"), (("a", "p"), r"\('a', 'p'\)"), (5, "5")],
        ids=["string", "tuple", "int"],
    )
    def test_serialize_refuses_every_entry(self, entry, shown):
        # the string was written as "a.p", the tuple as "('a', 'p')", which
        # does not parse, and the int raised TypeError
        b = LocalBehavior(("q",), frozenset({("q", "p", "q")}), "q")
        system = InteractionSystem(plain_port_model(entry), {"a": b})
        with pytest.raises(
            ModelError,
            match=rf"^cannot serialize: interaction 'i' lists {shown}, which is not a PortId$",
        ):
            serialize_system(system)

    def test_serialize_names_the_entry_before_any_name(self):
        # component 7 and state 0 are named only once every entry is a PortId
        b = LocalBehavior((0,), frozenset(), 0)
        model = InteractionModel((7,), {7: ("p",)}, (Interaction("i", ("7.p",)),))
        with pytest.raises(ModelError, match="lists '7.p', which is not a PortId$"):
            serialize_system(InteractionSystem(model, {7: b}))


def doubled_port_system():
    """Component k's port family lists port a twice."""
    b = LocalBehavior(("q0",), frozenset({("q0", "a", "q0")}), "q0")
    model = InteractionModel(
        ("k",), {"k": ("a", "a")}, (Interaction("i", (PortId("k", "a"),)),)
    )
    return InteractionSystem(model, {"k": b})


def doubled_state_system():
    """Component k lists states q1 and q0 twice each."""
    b = LocalBehavior(("q1", "q0", "q1", "q0"), frozenset({("q0", "a", "q0")}), "q0")
    model = InteractionModel(
        ("k",), {"k": ("a",)}, (Interaction("i", (PortId("k", "a"),)),)
    )
    return InteractionSystem(model, {"k": b})


class TestDuplicatePortInBehavior:
    def test_model_duplicate_is_reported_once(self):
        # each repeated item is named once, in sorted order
        m = even_a()
        doubled_dtm = dataclasses.replace(
            m, tape_alphabet=("b", "a", "b", "a"), states=(*m.states, "odd")
        )
        for report, expected in (
            (
                validate_system(doubled_port_system()),
                ["duplicate-port: component k declares port a twice"],
            ),
            (
                validate_system(doubled_state_system()),
                [
                    "duplicate-state: component k declares state q0 twice",
                    "duplicate-state: component k declares state q1 twice",
                ],
            ),
            (
                validate_dtm(doubled_dtm),
                [
                    "duplicate-symbol: tape alphabet lists a twice",
                    "duplicate-symbol: tape alphabet lists b twice",
                    "duplicate-state: state odd listed twice",
                ],
            ),
        ):
            assert [str(f) for f in report.findings] == expected

    def test_starify_refuses(self):
        with pytest.raises(ModelError, match="duplicate-port"):
            starify(doubled_port_system())


class TestImmutable:
    def test_behaviors_are_read_only(self):
        sys = pipeline(3)
        with pytest.raises(TypeError):
            sys.behaviors["s1"] = sys.behaviors["s2"]

    def test_port_families_are_read_only(self):
        sys = pipeline(3)
        with pytest.raises(TypeError):
            sys.model.ports["s1"] = ()

    def test_mappings_are_copied_at_construction(self):
        sys = client_server(1)
        ports, behaviors = dict(sys.model.ports), dict(sys.behaviors)
        built = InteractionSystem(
            InteractionModel(sys.model.components, ports, sys.model.interactions),
            behaviors,
        )
        del ports["c1"], behaviors["c1"]
        assert built == sys
        assert validate_system(built).ok

    def test_equal_to_plain_dicts(self):
        sys = pipeline(2)
        plain = InteractionSystem(
            InteractionModel(
                sys.model.components, dict(sys.model.ports), sys.model.interactions
            ),
            dict(sys.behaviors),
        )
        assert plain == sys
        assert dict(sys.behaviors) == sys.behaviors

    def test_pickle_and_deepcopy_round_trip(self):
        sys = client_server(2)
        explore(sys)  # caches the engine, which a copy leaves behind
        for twin in (pickle.loads(pickle.dumps(sys)), copy.deepcopy(sys)):
            assert twin == sys
            assert not hasattr(twin, "_engine")
            with pytest.raises(TypeError):
                twin.behaviors["c1"] = sys.behaviors["c1"]


class TestCanonicalize:
    def test_order_variant_interactions_both_survive(self):
        # canonicalize only sorts: the repeated port set stays a finding
        im = InteractionModel(
            ("c", "d"),
            {"c": ("x",), "d": ("y",)},
            (
                Interaction("b", (PortId("d", "y"), PortId("c", "x"))),
                Interaction("a", (PortId("c", "x"), PortId("d", "y"))),
            ),
        )
        ports = (PortId("c", "x"), PortId("d", "y"))
        assert canonicalize(im).interactions == (
            Interaction("a", ports),
            Interaction("b", ports),
        )

    def test_idempotent(self):
        for im in (client_server(3).model, pipeline(4).model):
            once = canonicalize(im)
            assert canonicalize(once) == once

    def test_shuffled_components_sorted(self):
        im = client_server(2).model
        shuffled = InteractionModel(
            tuple(reversed(im.components)), im.ports, im.interactions
        )
        assert canonicalize(shuffled).components == tuple(sorted(im.components))
        assert canonicalize(shuffled) == canonicalize(im)

    def test_interaction_ports_sorted_by_component_position(self):
        canon = canonicalize(client_server(2).model)
        order = {c: k for k, c in enumerate(canon.components)}
        for a in canon.interactions:
            positions = [order[p.component] for p in a.ports]
            assert positions == sorted(positions)

    def test_port_union_equality_when_clean(self):
        # zero findings imply: union of interactions == union of port families
        im = client_server(3).model
        assert validate_model(im).ok
        declared = {PortId(c, p) for c in im.components for p in im.ports[c]}
        used = {p for a in im.interactions for p in a.ports}
        assert declared == used
