"""Model layer: validation rules, enabled ports, canonicalization."""

import copy
import dataclasses
import pickle

import pytest

from interax import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    PortId,
    canonicalize,
    enabled_ports,
    explore,
    starify,
    validate_dtm,
    validate_model,
    validate_system,
)
from interax.fixtures import client_server, even_a, pipeline


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


class TestEnabledPorts:
    def test_server_initial_enables_connect(self):
        sys = client_server(2)
        assert enabled_ports(sys.behaviors["S"], "free") == {"connect"}

    def test_middle_station_initial_enables_receive(self):
        sys = pipeline(4)
        assert enabled_ports(sys.behaviors["s2"], "idle") == {"rec_m_2"}

    def test_state_without_outgoing(self):
        b = LocalBehavior(("q0", "dead"), frozenset({("q0", "p", "dead")}), "q0")
        assert enabled_ports(b, "dead") == frozenset()

    def test_unknown_state(self):
        b = LocalBehavior(("q0",), frozenset(), "q0")
        with pytest.raises(ModelError, match="no such state"):
            enabled_ports(b, "q1")


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
