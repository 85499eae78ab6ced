"""Global semantics: enabledness, stepping, exploration, reachability."""

import pytest

from interax import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    PortId,
    StatePredicate,
    enabled_interactions,
    explore,
    is_reachable,
    replay_trace,
    resolve_predicate,
    satisfies,
    step,
    successors,
)
from interax.fixtures import client_server, pipeline
from interax.formats import parse_system, serialize_system
from interax.semantics import compile_system
from interax.oracle import ENGINE_EQUIVALENCE_SEEDS, GenParams, gen_random_system


def nondet_system():
    """One component, one port, two targets for (q0, go)."""
    b = LocalBehavior(
        states=("q0", "q1", "q2"),
        transitions=frozenset({("q0", "go", "q1"), ("q0", "go", "q2")}),
        initial="q0",
    )
    model = InteractionModel(("k",), {"k": ("go",)}, (Interaction("fire", (PortId("k", "go"),)),))
    return InteractionSystem(model, {"k": b})


def index_order_system():
    """Names disagree with declaration order everywhere: components ("y",
    "x"), states ("z", "a") and ("n", "m"), interactions declared "sync"
    first and with ports out of component order.  Both parties of "sync"
    are nondeterministic."""
    y = LocalBehavior(
        states=("z", "a"),
        transitions=frozenset({("z", "p", "a"), ("z", "p", "z"), ("z", "u", "a")}),
        initial="z",
    )
    x = LocalBehavior(
        states=("n", "m"),
        transitions=frozenset({("n", "q", "m"), ("n", "q", "n")}),
        initial="n",
    )
    model = InteractionModel(
        ("y", "x"),
        {"y": ("p", "u"), "x": ("q",)},
        (
            Interaction("sync", (PortId("x", "q"), PortId("y", "p"))),
            Interaction("only_y", (PortId("y", "u"),)),
        ),
    )
    return InteractionSystem(model, {"y": y, "x": x})


class TestEnabledInteractions:
    def test_client_server_initial(self):
        sys = client_server(2)
        assert enabled_interactions(sys, sys.initial_state()) == {
            "connect_S_c1",
            "connect_S_c2",
        }

    def test_pipeline_initial(self):
        sys = pipeline(3)
        assert enabled_interactions(sys, sys.initial_state()) == {"send_message_1"}

    def test_deadlocked_state_empty(self):
        sys = pipeline(2)
        # both stations out of sync: s1 waits for an ack, s2 waits for a message
        assert enabled_interactions(sys, ("waiting", "idle")) == frozenset()

    def test_invalid_state_rejected(self):
        sys = pipeline(2)
        with pytest.raises(ModelError, match="no such state"):
            enabled_interactions(sys, ("ready", "bogus"))


class TestStep:
    def test_connect_moves_both_participants(self):
        sys = client_server(1)
        after = step(sys, sys.initial_state(), "connect_S_c1")
        assert after == ("busy", "connected")

    def test_disabled_interaction_names_blockers(self):
        sys = client_server(2)
        q = ("busy", "connected", "idle")
        with pytest.raises(ModelError, match="disconnect_S_c2 blocked by c2"):
            step(sys, q, "disconnect_S_c2")

    def test_pipeline_first_hop_frame_condition(self):
        sys = pipeline(3)
        after = step(sys, sys.initial_state(), "send_message_1")
        assert after == ("waiting", "holding", "idle")

    def test_unknown_interaction(self):
        sys = pipeline(2)
        with pytest.raises(ModelError, match="no such interaction"):
            step(sys, sys.initial_state(), "bogus")

    def test_nondeterminism_resolved_to_lowest_index(self):
        sys = nondet_system()
        assert step(sys, ("q0",), "fire") == ("q1",)


class TestSuccessors:
    def test_client_server_two_successors(self):
        sys = client_server(2)
        succ = successors(sys, sys.initial_state())
        assert succ == [
            ("connect_S_c1", ("busy", "connected", "idle")),
            ("connect_S_c2", ("busy", "idle", "connected")),
        ]

    def test_deadlock_empty(self):
        sys = pipeline(2)
        assert successors(sys, ("waiting", "idle")) == []

    def test_nondeterminism_enumerates_all(self):
        sys = nondet_system()
        assert successors(sys, ("q0",)) == [("fire", ("q1",)), ("fire", ("q2",))]

    def test_canonical_order_is_by_state_index_not_name(self):
        # interaction name, then participants in component order, each one's
        # targets ascending by declared state index; step takes the first
        sys = index_order_system()
        q = sys.initial_state()
        assert successors(sys, q) == [
            ("only_y", ("a", "n")),
            ("sync", ("z", "n")),
            ("sync", ("z", "m")),
            ("sync", ("a", "n")),
            ("sync", ("a", "m")),
        ]
        for name in ("only_y", "sync"):
            first = next(s for via, s in successors(sys, q) if via == name)
            assert step(sys, q, name) == first


class TestExplore:
    def test_client_server_r2_three_states(self):
        result = explore(client_server(2))
        assert result.complete
        assert result.states == {
            ("free", "idle", "idle"),
            ("busy", "connected", "idle"),
            ("busy", "idle", "connected"),
        }

    def test_pipeline_n3_four_states(self):
        result = explore(pipeline(3))
        assert len(result.states) == 4
        assert result.complete

    def test_initial_deadlock_single_state(self):
        b = LocalBehavior(("q0", "q1"), frozenset({("q1", "p", "q0")}), "q0")
        model = InteractionModel(("k",), {"k": ("p",)}, (Interaction("a", (PortId("k", "p"),)),))
        sys = InteractionSystem(model, {"k": b})
        result = explore(sys)
        assert result.states == {("q0",)}
        assert result.transitions == 0

    def test_truncation_reported(self):
        result = explore(pipeline(5), max_states=3)
        assert not result.complete
        assert len(result.states) == 3

    def test_bound_below_one_rejected(self):
        for bound in (0, -1):
            with pytest.raises(ModelError, match="max_states must be at least 1"):
                explore(pipeline(3), max_states=bound)

    def test_frame_and_participation_conditions(self):
        # every produced edge: participants move along a local transition,
        # non-participants keep their state
        for sys in (client_server(2), pipeline(3)):
            by_name = {a.name: a for a in sys.model.interactions}
            comps = sys.model.components
            for q in sorted(explore(sys).states):
                for name, q2 in successors(sys, q):
                    a = by_name[name]
                    for i, c in enumerate(comps):
                        port = dict(a.ports).get(c)
                        if port is None:
                            assert q[i] == q2[i]
                        else:
                            assert (q[i], port, q2[i]) in sys.behaviors[c].transitions


class TestIsReachable:
    def test_client_server_r1_connect(self):
        sys = client_server(1)
        target = StatePredicate.of({"S": "busy", "c1": "connected"})
        result = is_reachable(sys, target)
        assert result.reachable
        assert result.trace == ["connect_S_c1"]

    def test_initial_state_empty_trace(self):
        sys = pipeline(3)
        target = StatePredicate.of(dict(zip(sys.model.components, sys.initial_state())))
        result = is_reachable(sys, target)
        assert result.reachable
        assert result.trace == []

    def test_unreachable_partial_target(self):
        # server back home while a client stays connected: never happens
        sys = client_server(2)
        target = StatePredicate.of({"S": "free", "c1": "connected"})
        result = is_reachable(sys, target)
        assert not result.reachable
        assert result.trace is None
        assert result.complete

    def test_truncated_search_incomplete(self):
        sys = pipeline(6)
        target = StatePredicate.of({"s1": "waiting", "s6": "replying"})
        result = is_reachable(sys, target, max_states=2)
        assert not result.reachable
        assert not result.complete

    def test_disjunction_of_predicates(self):
        sys = client_server(2)
        targets = [
            StatePredicate.of({"S": "free", "c1": "connected"}),  # impossible
            StatePredicate.of({"c2": "connected"}),
        ]
        result = is_reachable(sys, targets)
        assert result.reachable
        assert result.trace == ["connect_S_c2"]

    def test_trace_is_shortest(self):
        sys = pipeline(4)
        target = StatePredicate.of({"s4": "replying"})
        result = is_reachable(sys, target)
        assert result.trace == ["send_message_1", "send_message_2", "send_message_3"]

    def test_witness_replay_satisfies_target(self):
        sys = pipeline(5)
        target = StatePredicate.of({"s3": "acked"})
        result = is_reachable(sys, target)
        assert result.reachable
        finals = replay_trace(sys, result.trace)
        assert any(satisfies(sys, target, q) for q in finals)
        with pytest.raises(ModelError, match="no such interaction: 'ghost'"):
            replay_trace(sys, result.trace + ["ghost"])
        with pytest.raises(ModelError, match="trace step 0 .* is not fireable"):
            replay_trace(sys, ["send_acknowledge_2"])

    def test_witness_replay_by_step_when_deterministic(self):
        sys = client_server(3)
        target = StatePredicate.of({"c3": "connected"})
        result = is_reachable(sys, target)
        q = sys.initial_state()
        for name in result.trace:
            q = step(sys, q, name)
        assert satisfies(sys, target, q)

    def test_unknown_predicate_names_rejected(self):
        sys = client_server(1)
        with pytest.raises(ModelError, match="unknown component"):
            is_reachable(sys, StatePredicate.of({"nope": "x"}))
        with pytest.raises(ModelError, match="unknown state"):
            resolve_predicate(sys, {"c1": "nope"})
        with pytest.raises(ModelError, match="unknown state"):
            satisfies(sys, StatePredicate.of({"c1": "nope"}), sys.initial_state())

    def test_satisfies_checks_the_global_state(self):
        sys = client_server(1)
        pred = StatePredicate.of({"S": "busy"})
        assert satisfies(sys, pred, ("busy", "connected"))
        assert not satisfies(sys, pred, ("free", "connected"))
        with pytest.raises(ModelError, match="global state has 1 entries, expected 2"):
            satisfies(sys, pred, ("busy",))
        with pytest.raises(ModelError, match="no such state: 'gone' in component c1"):
            satisfies(sys, pred, ("busy", "gone"))

    def test_star_is_a_state_name(self):
        # "*" means any state only in predicate text, never in a predicate
        sys = client_server(1)
        pred = StatePredicate.of({"S": "busy", "c1": "*"})
        assert pred.as_dict() == {"S": "busy", "c1": "*"}
        with pytest.raises(ModelError, match="unknown state '\\*' of component c1"):
            is_reachable(sys, pred)

    def test_bound_below_one_rejected(self):
        sys = pipeline(3)
        target = StatePredicate.of({"s3": "replying"})
        for bound in (0, -1):
            with pytest.raises(ModelError, match="max_states must be at least 1"):
                is_reachable(sys, target, max_states=bound)


def bfs_depths(sys):
    """Breadth-first depth of every reachable state, from `successors`."""
    depth = {sys.initial_state(): 0}
    frontier = [sys.initial_state()]
    while frontier:
        following = []
        for q in frontier:
            for _, q2 in successors(sys, q):
                if q2 not in depth:
                    depth[q2] = depth[q] + 1
                    following.append(q2)
        frontier = following
    return depth


@pytest.mark.parametrize("seed", ENGINE_EQUIVALENCE_SEEDS[:60])
def test_search_entry_points_agree(seed):
    # explore, is_reachable and replay_trace share one search: every explored
    # state has a shortest witness that replays to it, and successor lists
    # come out in canonical order
    sys = gen_random_system(GenParams(seed=seed))
    depth = bfs_depths(sys)
    states = explore(sys).states
    assert states == set(depth)
    for q in sorted(states):
        succ = successors(sys, q)
        assert succ == sorted(succ)
        result = is_reachable(sys, StatePredicate.of(dict(zip(sys.model.components, q))))
        assert result.reachable
        assert len(result.trace) == depth[q]
        assert q in replay_trace(sys, result.trace)


class TestCompileOnce:
    def test_same_engine_on_every_call(self):
        sys = pipeline(3)
        assert compile_system(sys) is compile_system(sys)

    def test_compiled_system_is_unchanged(self):
        text = serialize_system(client_server(2))
        sys = parse_system(text)
        before = repr(sys)
        explore(sys)
        assert sys == parse_system(text)
        assert serialize_system(sys) == text
        assert repr(sys) == before

    def test_invalid_system_raises_on_every_call(self):
        sys = client_server(1)
        bad = LocalBehavior(("idle",), frozenset(), "nowhere")
        broken = InteractionSystem(sys.model, {**sys.behaviors, "c1": bad})
        for _ in range(2):
            with pytest.raises(ModelError, match="missing-initial"):
                compile_system(broken)
        assert not hasattr(broken, "_engine")

    def test_equal_systems_get_their_own_engines(self):
        a, b = pipeline(3), pipeline(3)
        assert a == b and a is not b
        assert compile_system(a) is not compile_system(b)
        assert compile_system(a) is compile_system(a)
