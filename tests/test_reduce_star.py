"""Hub-and-spokes transformation: sizes, protocol shape, projection."""

import pytest

from interax import (
    GenParams,
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    PortId,
    brute_force_reachable,
    check_theorem2,
    classify,
    enabled_interactions,
    gen_random_system,
    project_state,
    starify,
    step,
    successors,
    validate_system,
)
from interax.fixtures import client_server, pipeline


def hub_of(sys):
    """The hub behavior of starify(sys), its last component."""
    star = starify(sys)
    return star.behaviors[star.model.components[-1]]


def single_port_system():
    b = LocalBehavior(("q0",), frozenset({("q0", "a", "q0")}), "q0")
    model = InteractionModel(("k",), {"k": ("a",)}, (Interaction("solo", (PortId("k", "a"),)),))
    return InteractionSystem(model, {"k": b})


class TestSizes:
    def test_client_server_r2_formulas(self):
        sys = client_server(2)
        star = starify(sys)
        assert validate_system(star).ok
        assert len(star.model.components) == 3 + 1
        # |Int'| = |Int| + sum 3*|A_i| = 4 + 3*6
        assert len(star.model.interactions) == 22
        cc = star.behaviors["cc"]
        # |Q_cc| = 1 + sum over interactions of 2*|alpha|
        assert len(cc.states) == 1 + 4 * (2 * 2)
        # |->_cc| = sum of (3*|alpha| + 1)
        assert len(cc.transitions) == 4 * (3 * 2 + 1)
        assert len(star.model.ports["cc"]) == 4 + 3 * 6
        for c in sys.model.components:
            assert len(star.model.ports[c]) == 3 * len(sys.model.ports[c])
            b0, b1 = sys.behaviors[c], star.behaviors[c]
            # |->_i'| = |->_i| + |Q_i| * |A_i|
            assert len(b1.transitions) == len(b0.transitions) + len(b0.states) * len(
                sys.model.ports[c]
            )

    def test_formulas_hold_on_fixture_family(self):
        for sys in (client_server(1), client_server(3), pipeline(2), pipeline(4)):
            star = starify(sys)
            model, prime = sys.model, star.model
            total_ports = sum(len(model.ports[c]) for c in model.components)
            assert len(prime.components) == len(model.components) + 1
            assert len(prime.interactions) == len(model.interactions) + 3 * total_ports
            cc = star.behaviors[prime.components[-1]]
            assert len(cc.states) == 1 + sum(
                2 * len(a.ports) for a in model.interactions
            )
            assert len(cc.transitions) == sum(
                3 * len(a.ports) + 1 for a in model.interactions
            )

    def test_unary_interaction_gives_three_cc_states(self):
        star = starify(single_port_system())
        cc = star.behaviors["cc"]
        assert len(cc.states) == 3  # idle, one check, one fire
        assert len(cc.transitions) == 4  # start, ok, not-ok, fire

    def test_single_binary_interaction_gives_five_cc_states(self):
        b1 = LocalBehavior(("q0",), frozenset({("q0", "a", "q0")}), "q0")
        b2 = LocalBehavior(("r0",), frozenset({("r0", "b", "r0")}), "r0")
        model = InteractionModel(
            ("k1", "k2"),
            {"k1": ("a",), "k2": ("b",)},
            (Interaction("pair", (PortId("k1", "a"), PortId("k2", "b"))),),
        )
        cc = hub_of(InteractionSystem(model, {"k1": b1, "k2": b2}))
        assert len(cc.states) == 5  # idle + two checks + two fires
        assert len(cc.transitions) == 3 * 2 + 1


class TestCcBehavior:
    def test_binary_interaction_lobe(self):
        cc = hub_of(client_server(1))
        # 2 interactions of size 2: idle + 2*(2+2) states
        assert len(cc.states) == 9
        assert cc.initial == "idle"
        # idle enables one start port per interaction
        assert {p for s, p, _ in cc.transitions if s == "idle"} == {
            "start:connect_S_c1",
            "start:disconnect_S_c1",
        }

    def test_check_states_enable_their_port_pair_fire_states_one(self):
        # a check state can answer either way, so it enables the ok and the
        # not-ok variant of one base port; a fire state enables one port
        cc = hub_of(pipeline(3))
        for state in cc.states:
            if state == "idle":
                continue
            enabled = {p for s, p, _ in cc.transitions if s == state}
            if state.startswith("chk:"):
                assert len(enabled) == 2
                bases = {p.split(":", 1)[1] for p in enabled}
                assert len(bases) == 1
            else:
                assert len(enabled) == 1

    def test_model_without_ports_gives_bare_idle(self):
        model = InteractionModel(("k",), {"k": ()}, ())
        b = LocalBehavior(("q0",), frozenset(), "q0")
        cc = hub_of(InteractionSystem(model, {"k": b}))
        assert cc.states == ("idle",)
        assert cc.transitions == frozenset()

    def test_two_interactions_share_idle_only(self):
        cc = hub_of(client_server(1))
        lobes = {}
        for state in cc.states:
            if state == "idle":
                continue
            lobes.setdefault(state.split(":")[1], set()).add(state)
        assert set(lobes) == {"connect_S_c1", "disconnect_S_c1"}
        assert not (lobes["connect_S_c1"] & lobes["disconnect_S_c1"])


class TestProtocol:
    def test_ok_nok_partition_loops(self):
        sys = pipeline(3)
        star = starify(sys)
        for c in sys.model.components:
            b0, b1 = sys.behaviors[c], star.behaviors[c]
            for state in b0.states:
                can = {p for s, p, _ in b0.transitions if s == state}
                for port in sys.model.ports[c]:
                    ok, nok = f"ok:{port}", f"nok:{port}"
                    have_ok = (state, ok, state) in b1.transitions
                    have_nok = (state, nok, state) in b1.transitions
                    assert have_ok == (port in can)
                    assert have_nok == (port not in can)
                    assert have_ok != have_nok

    def test_mid_protocol_states_enable_exactly_one_interaction(self):
        sys = client_server(2)
        star = starify(sys)
        from interax import explore

        for q in explore(star).states:
            if q[-1] != "idle":
                assert len(enabled_interactions(star, q)) == 1

    def test_protocol_determinism_on_random_systems(self):
        # holds under local nondeterminism too: the ok/nok partition and the
        # one-port-at-a-time fire walk pin the next interaction
        from interax import explore

        for seed in range(15):
            sys = gen_random_system(GenParams(seed=seed))
            star = starify(sys)
            for q in explore(star).states:
                if q[-1] != "idle":
                    assert len(enabled_interactions(star, q)) == 1, (seed, q)

    def test_abort_returns_to_same_lifted_state(self):
        sys = client_server(1)
        star = starify(sys)
        # from the lifted initial, try the disconnect protocol: the check
        # fails at the first port and returns without touching anyone
        q = (*sys.initial_state(), "idle")
        q = step(star, q, "start:disconnect_S_c1")
        (only,) = successors(star, q)
        assert only[0] == "nok:S.disconnect"
        assert only[1] == (*sys.initial_state(), "idle")

    def test_successful_protocol_simulates_one_interaction(self):
        sys = client_server(1)
        star = starify(sys)
        q = (*sys.initial_state(), "idle")
        q = step(star, q, "start:connect_S_c1")
        seen = []
        while q[-1] != "idle":
            ((name, q),) = successors(star, q)
            seen.append(name)
        assert seen == [
            "ok:S.connect",
            "ok:c1.connect_1",
            "fire:S.connect",
            "fire:c1.connect_1",
        ]
        assert q == (*step(sys, sys.initial_state(), "connect_S_c1"), "idle")


class TestLiftProject:
    def test_project_inverts_lift(self):
        randoms = [gen_random_system(GenParams(seed=seed)) for seed in range(10)]
        for sys in (client_server(2), pipeline(3), *randoms):
            for q in brute_force_reachable(sys):
                assert project_state(sys, (*q, "idle")) == q

    def test_mid_protocol_state_not_projectable(self):
        sys = client_server(1)
        star = starify(sys)
        q = step(star, star.initial_state(), "start:connect_S_c1")
        assert project_state(sys, q) is None

    def test_projection_of_reachable_equals_base_reachable(self):
        sys = client_server(1)
        star = starify(sys)
        projected = set()
        for q in brute_force_reachable(star):
            p = project_state(sys, q)
            if p is not None:
                projected.add(p)
        assert projected == brute_force_reachable(sys)

    def test_project_checks_length_against_source(self):
        sys = client_server(1)
        star = starify(sys)
        # a state of the source itself lacks the hub coordinate
        with pytest.raises(ModelError, match="global state has 2 entries, expected 3"):
            project_state(sys, sys.initial_state())
        # the starified system passed as the source expects one more
        with pytest.raises(ModelError, match="global state has 3 entries, expected 4"):
            project_state(star, star.initial_state())


class TestTopologyOfResult:
    def test_fixtures_become_star_like(self):
        for sys in (client_server(2), pipeline(3), pipeline(5)):
            assert classify(starify(sys).model).star_like

    def test_single_component_reports_boundary_case(self):
        star = starify(single_port_system())
        shape = classify(star.model)
        assert shape.star_like and shape.linear  # two nodes, one edge

    def test_random_systems_with_ported_components(self):
        # starify ports every component, also one in no interaction
        for seed in range(25):
            sys = gen_random_system(GenParams(seed=seed))
            star = starify(sys)
            assert validate_system(star).ok
            assert classify(star.model).star_like

    def test_component_in_no_interaction_gets_a_link_that_never_fires(self):
        sys = gen_random_system(GenParams(seed=7))
        assert sys.model.ports["k1"] == ()
        star = starify(sys)
        assert star.model.ports["k1"] == ("ok:link",)
        link = [a for a in star.model.interactions if "k1" in dict(a.ports)]
        assert link == [
            Interaction(
                "ok:k1.link", (PortId("k1", "ok:link"), PortId("cc", "ok:k1.link"))
            )
        ]
        assert not star.behaviors["k1"].transitions
        assert all(
            "ok:k1.link" not in enabled_interactions(star, q)
            for q in brute_force_reachable(star)
        )
        assert project_state(sys, star.initial_state()) == sys.initial_state()
        verdict = check_theorem2(sys)
        assert verdict.agree
        assert verdict.details == "|reach|=1 |reach'|=7 |projected|=1"

    def test_port_name_collision_refused(self):
        b = LocalBehavior(("q0",), frozenset({("q0", "a", "q0")}), "q0")
        model = InteractionModel(
            ("k",),
            {"k": ("a", "ok:a")},
            (
                Interaction("i", (PortId("k", "a"),)),
                Interaction("j", (PortId("k", "ok:a"),)),
            ),
        )
        with pytest.raises(ModelError, match="port name collision: k.ok:a already exists"):
            starify(InteractionSystem(model, {"k": b}))

    def test_hub_name_dodges_existing_component(self):
        b = LocalBehavior(("q0",), frozenset({("q0", "a", "q0")}), "q0")
        model = InteractionModel(
            ("cc",), {"cc": ("a",)}, (Interaction("solo", (PortId("cc", "a"),)),)
        )
        star = starify(InteractionSystem(model, {"cc": b}))
        assert star.model.components == ("cc", "cc_")
        assert validate_system(star).ok


def grammar_order(sys):
    """The interaction names of starify(sys) as the module docstring's
    naming grammar gives them: per component in model order, per port, its
    ok, nok and fire hub sides (the ok side of the link for a component
    with no ports), then one start per original interaction."""
    names = []
    for c in sys.model.components:
        family = sys.model.ports.get(c, ())
        for p in family:
            names += [f"ok:{c}.{p}", f"nok:{c}.{p}", f"fire:{c}.{p}"]
        if not family:
            names.append(f"ok:{c}.link")
    return [*names, *(f"start:{a.name}" for a in sys.model.interactions)]


def invariant_systems():
    yield from (client_server(r) for r in range(1, 7))
    yield from (pipeline(n) for n in range(2, 7))
    for seed in range(300):
        yield gen_random_system(GenParams(seed=seed))


class TestSinglePass:
    def test_hub_ports_are_the_hub_sides_of_the_interactions(self):
        for sys in invariant_systems():
            star = starify(sys)
            hub = star.model.components[-1]
            interactions = star.model.interactions
            sides = [p.port for a in interactions for p in a.ports if p.component == hub]
            # each hub port is the hub side of exactly one interaction
            assert sorted(sides) == sorted(set(star.model.ports[hub]))
            links = [a.name for a in interactions if not a.name.startswith("start:")]
            starts = [f"start:{a.name}" for a in sys.model.interactions]
            assert star.model.ports[hub] == (*links, *starts)
            assert validate_system(star).ok

    def test_interactions_and_hub_ports_follow_the_naming_grammar(self):
        randoms = [gen_random_system(GenParams(seed=seed)) for seed in range(50)]
        assert any(
            not sys.model.ports.get(c) for sys in randoms for c in sys.model.components
        )
        fixtures = [
            single_port_system(),
            *map(client_server, (1, 2, 3)),
            *map(pipeline, (2, 3, 4)),
        ]
        for sys in [*fixtures, *randoms]:
            star = starify(sys)
            hub = star.model.components[-1]
            names = grammar_order(sys)
            assert [a.name for a in star.model.interactions] == names
            assert star.model.ports[hub] == tuple(names)
            # each interaction's hub side is the last party and bears its name
            assert all(a.ports[-1] == PortId(hub, a.name) for a in star.model.interactions)
