"""Global semantics: enabledness, stepping, exploration, reachability."""

import itertools
import json
import math
import random
import threading
from dataclasses import fields, replace
from pathlib import Path
from sys import getswitchinterval, setswitchinterval

import pytest

from interax import (
    DTM,
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
    run_tm,
    step,
    successors,
)
from interax.fixtures import client_server, even_a, first_last, pipeline
from interax.reduce_linear import accept_predicate, compile_lsa
from interax.formats import parse_dtm, parse_system, serialize_system
from interax.semantics import Engine, compile_system, linked_path
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

    def test_foreign_state_rejected_with_the_exact_message(self):
        sys = client_server(1)
        with pytest.raises(ModelError, match="^global state has 1 entries, expected 2$"):
            successors(sys, ("busy",))
        with pytest.raises(ModelError, match="^no such state: 'gone' in component c1$"):
            enabled_interactions(sys, ("busy", "gone"))


# an unhashable name is refused as a foreign one is, by every entry point
UNHASHABLE_NAMES = [["x"], {"x": 1}]
NON_INTEGER_BOUNDS = [2.5, 3.0, "3", True]

# every bound parameter: its name and a call that passes it a value
BOUND_CALLS = {
    "max_states": lambda v: explore(client_server(3), max_states=v),
    "max_steps": lambda v: run_tm(even_a(), "aaaa", v),
    **{
        f.name: lambda v, name=f.name: gen_random_system(GenParams(seed=1, **{name: v}))
        for f in fields(GenParams)[1:]
    },
}


@pytest.mark.parametrize("value", [*NON_INTEGER_BOUNDS, 0, -1], ids=repr)
@pytest.mark.parametrize("name", BOUND_CALLS)
def test_every_bound_refuses_non_integers_and_values_below_one(name, value):
    # a fraction or a bool must not bound a run silently: run_tm would take
    # 3 steps for 2.5, and explore would find 1 state for True
    with pytest.raises(ModelError) as caught:
        BOUND_CALLS[name](value)
    if type(value) is int:
        assert str(caught.value) == f"{name} must be at least 1, got {value}"
    else:
        assert str(caught.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("name", UNHASHABLE_NAMES, ids=["list", "dict"])
@pytest.mark.parametrize(
    "call",
    [
        successors,
        enabled_interactions,
        lambda sys, q: step(sys, q, "connect_S_c1"),
    ],
    ids=["successors", "enabled_interactions", "step"],
)
def test_an_unhashable_state_name_is_no_such_state(call, name):
    with pytest.raises(ModelError) as caught:
        call(client_server(2), (name, "idle", "idle"))
    assert str(caught.value) == f"no such state: {name!r} in component S"


@pytest.mark.parametrize("name", UNHASHABLE_NAMES, ids=["list", "dict"])
@pytest.mark.parametrize(
    "call",
    [
        lambda sys, name: is_reachable(sys, StatePredicate.of({"S": name})),
        lambda sys, name: resolve_predicate(sys, {"S": name}),
    ],
    ids=["is_reachable", "resolve_predicate"],
)
def test_an_unhashable_predicate_name_is_an_unknown_state(call, name):
    with pytest.raises(ModelError) as caught:
        call(client_server(2), name)
    assert str(caught.value) == f"predicate names unknown state {name!r} of component S"


@pytest.mark.parametrize("name", UNHASHABLE_NAMES, ids=["list", "dict"])
@pytest.mark.parametrize(
    "call",
    [
        lambda sys, name: step(sys, sys.initial_state(), name),
        lambda sys, name: replay_trace(sys, [name]),
    ],
    ids=["step", "replay_trace"],
)
def test_an_unhashable_interaction_name_is_no_such_interaction(call, name):
    with pytest.raises(ModelError) as caught:
        call(client_server(2), name)
    assert str(caught.value) == f"no such interaction: {name!r}"


class Counted(dict):
    """A state index that records every name looked up in it."""

    def __init__(self, index):
        super().__init__(index)
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


class TestPackMemo:
    def test_a_walk_packs_each_state_once(self):
        # enabled_interactions, successors and step on one state tuple
        # share one pack, whose body looks component 0's name up once
        sys = pipeline(3)
        eng = compile_system(sys)
        index = eng.state_index[0] = Counted(eng.state_index[0])
        rng = random.Random(0)
        q = sys.initial_state()
        visited = []
        for _ in range(24):
            enabled = enabled_interactions(sys, q)
            assert {name for name, _ in successors(sys, q)} == enabled
            visited.append(q[0])
            q = step(sys, q, rng.choice(sorted(enabled)))
        assert index.looked_up == visited

    def test_a_list_state_is_packed_on_every_call(self):
        sys = client_server(2)
        first, then = sys.initial_state(), ("busy", "connected", "idle")
        expected = successors(sys, first), successors(sys, then)
        q = list(first)
        assert successors(sys, q) == expected[0]
        q[:] = then
        assert successors(sys, q) == expected[1]
        assert enabled_interactions(sys, q) == {"disconnect_S_c1"}

    @pytest.mark.parametrize("name", ["gone", *UNHASHABLE_NAMES], ids=["unknown", "list", "dict"])
    def test_a_refused_state_is_refused_again(self, name):
        sys = client_server(2)
        q = (name, "idle", "idle")
        for _ in range(2):
            with pytest.raises(ModelError) as caught:
                successors(sys, q)
            assert str(caught.value) == f"no such state: {name!r} in component S"


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
        # every blocker, in component order: components are declared
        # ("y", "x"), and "sync" needs y.p, which only "z" enables, and x.q,
        # which only "n" enables
        sys = index_order_system()
        for q, blockers in ((("a", "m"), "y, x"), (("a", "n"), "y"), (("z", "m"), "x")):
            with pytest.raises(ModelError) as caught:
                step(sys, q, "sync")
            assert str(caught.value) == f"interaction disabled: sync blocked by {blockers}"

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
    @pytest.mark.parametrize("r", range(1, 7))
    def test_client_server_closed_form(self, r):
        # r+1 states: all idle, or busy with client i connected; 2r transitions
        result = explore(client_server(r))
        assert result.complete
        idle = ("idle",) * r
        assert result.states == {("free", *idle)} | {
            ("busy", *idle[:i], "connected", *idle[i + 1 :]) for i in range(r)
        }
        assert result.transitions == 2 * r

    @pytest.mark.parametrize("nondet", [False, True], ids=["det", "nondet"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_ring_closed_form(self, k, nondet):
        # every digit string is reachable; out of each state every c_i ticks
        # to one or two targets and every handshake fires once
        sys = ring(k, nondet)
        result = explore(sys)
        assert result.complete
        assert result.states == set(itertools.product(("q0", "q1", "q2"), repeat=k))
        assert result.transitions == k * 3**k * (3 if nondet else 2)
        top = [StatePredicate.of({f"c{i}": "q2" for i in range(k)})]
        got = is_reachable(sys, top)
        assert got.reachable and got.complete
        assert len(got.trace) == (k if nondet else 2 * k)
        assert (got.states_explored, got.transitions_explored) == reference_reach(
            sys, top
        )[2:4]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pipeline_closed_form(self, n):
        # the token walks up and back: 2(n-1) states, one move out of each
        result = explore(pipeline(n))
        assert result.complete
        assert len(result.states) == 2 * (n - 1)
        assert result.transitions == 2 * (n - 1)

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

    @pytest.mark.parametrize("bound", NON_INTEGER_BOUNDS, ids=repr)
    def test_non_integer_bound_rejected(self, bound):
        # a fractional bound never counts down to 0, so it would not bound
        with pytest.raises(ModelError) as caught:
            explore(client_server(6), max_states=bound)
        assert str(caught.value) == f"max_states must be an integer, got {bound!r}"

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

    def test_constraint_free_target_holds_at_the_initial_state(self):
        result = is_reachable(pipeline(3), StatePredicate.of({}))
        assert (result.reachable, result.trace) == (True, [])
        assert (result.states_explored, result.transitions_explored) == (1, 0)
        assert result.complete

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
        assert any(q[sys.model.components.index("s3")] == "acked" for q in finals)
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
        assert q[sys.model.components.index("c3")] == "connected"

    def test_resolve_predicate_returns_the_predicate(self):
        sys = client_server(2)
        constraints = {"c2": "connected", "S": "busy"}
        assert resolve_predicate(sys, constraints) == StatePredicate.of(constraints)
        assert resolve_predicate(sys, {}) == StatePredicate(())

    def test_unknown_predicate_names_rejected(self):
        sys = client_server(1)
        with pytest.raises(ModelError, match="unknown component"):
            is_reachable(sys, StatePredicate.of({"nope": "x"}))
        with pytest.raises(ModelError, match="unknown state"):
            resolve_predicate(sys, {"c1": "nope"})

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

    @pytest.mark.parametrize("bound", NON_INTEGER_BOUNDS, ids=repr)
    def test_non_integer_bound_rejected(self, bound):
        target = StatePredicate.of({"s3": "replying"})
        with pytest.raises(ModelError) as caught:
            is_reachable(pipeline(3), target, max_states=bound)
        assert str(caught.value) == f"max_states must be an integer, got {bound!r}"

    @pytest.mark.parametrize("target", [{"S": "busy"}, ["S"]], ids=["dict", "list-of-str"])
    def test_a_target_member_that_is_no_predicate_is_refused(self, target):
        with pytest.raises(ModelError) as caught:
            is_reachable(client_server(2), target)
        assert str(caught.value) == "target member 'S' is not a StatePredicate"


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


def reference_search(sys, targets=None, max_states=None):
    """Breadth-first search over the public `successors`, with a visited set
    of name tuples.  Returns (parents, transitions, truncated, hit) with the
    engine's rules: new states past `max_states` are dropped, and a hit
    counts every successor of the state being expanded."""
    comps = sys.model.components
    limit = 1_000_000 if max_states is None else max_states

    def holds(q):
        return any(
            all(q[comps.index(c)] == s for c, s in t.constraints) for t in targets or ()
        )

    start = sys.initial_state()
    parents = {start: None}
    if holds(start):
        return parents, 0, False, start
    frontier, transitions, truncated = [start], 0, False
    while frontier:
        following = []
        for q in frontier:
            succs = successors(sys, q)
            transitions += len(succs)
            for name, q2 in succs:
                if q2 in parents:
                    continue
                if len(parents) >= limit:
                    truncated = True
                    continue
                parents[q2] = (q, name)
                if holds(q2):
                    return parents, transitions, truncated, q2
                following.append(q2)
        frontier = following
    return parents, transitions, truncated, None


def reference_reach(sys, targets, max_states=None):
    """`is_reachable`'s fields, from `reference_search`."""
    parents, transitions, truncated, hit = reference_search(sys, targets, max_states)
    if hit is None:
        return False, None, len(parents), transitions, not truncated
    trace = []
    while parents[hit] is not None:
        hit, name = parents[hit]
        trace.append(name)
    return True, trace[::-1], len(parents), transitions, True


def assert_search_is_reference(sys, targets, max_states=None):
    got = is_reachable(sys, targets, max_states)
    assert (
        got.reachable, got.trace, got.states_explored,
        got.transitions_explored, got.complete,
    ) == reference_reach(sys, targets, max_states)
    parents, transitions, truncated, _ = reference_search(sys, None, max_states)
    result = explore(sys, max_states)
    assert (result.states, result.transitions, result.complete) == (
        set(parents), transitions, not truncated,
    )


def ring(k, nondet):
    """Components c0..c{k-1} with states q0..q2: `t_i` ticks c_i one state
    on (or two, when `nondet`), and `s_i` is a handshake of c_i and c_{i+1}
    in which neither moves."""
    states = ("q0", "q1", "q2")
    comps = tuple(f"c{i}" for i in range(k))
    behaviors, ports, interactions = {}, {}, []
    for i, c in enumerate(comps):
        right = comps[(i + 1) % k]
        moves = {(s, "tick", states[(j + 1) % 3]) for j, s in enumerate(states)}
        if nondet:
            moves |= {(s, "tick", states[(j + 2) % 3]) for j, s in enumerate(states)}
        moves |= {(s, p, s) for s in states for p in ("left", "right")}
        behaviors[c] = LocalBehavior(states, frozenset(moves), "q0")
        ports[c] = ("tick", "left", "right")
        interactions.append(Interaction(f"t_{i}", (PortId(c, "tick"),)))
        pair = sorted([(i, PortId(c, "right")), ((i + 1) % k, PortId(right, "left"))])
        interactions.append(Interaction(f"s_{i}", tuple(p for _, p in pair)))
    model = InteractionModel(comps, ports, tuple(interactions))
    return InteractionSystem(model, behaviors)


@pytest.mark.parametrize("seed", ENGINE_EQUIVALENCE_SEEDS[:60])
def test_search_is_the_reference_bfs(seed):
    sys = gen_random_system(GenParams(seed=seed))
    comps = sys.model.components
    states = sorted(reference_search(sys)[0])
    eng = compile_system(sys)
    for q in states:
        assert eng.names(eng.pack(q)[0]) == q
    rng = random.Random(seed)
    for _ in range(3):
        q = rng.choice(states)
        picked = rng.sample(range(len(comps)), rng.randint(1, len(comps)))
        partial = StatePredicate.of({comps[i]: q[i] for i in picked})
        exact = StatePredicate.of(dict(zip(comps, rng.choice(states))))
        for bound in (None, 1, 3):
            assert_search_is_reference(sys, [partial], bound)
            assert_search_is_reference(sys, [exact, partial], bound)


@pytest.mark.parametrize("nondet", [False, True], ids=["det", "nondet"])
def test_search_on_a_ring_is_the_reference_bfs(nondet):
    sys = ring(5, nondet)
    deep = StatePredicate.of({f"c{i}": "q2" for i in range(5)})
    mid = StatePredicate.of({"c3": "q1", "c4": "q2"})
    # 242, 243 and 244 straddle the ring's 243 states
    for bound in (None, 2, 40, 200, 242, 243, 244):
        for targets in ([deep], [mid], [mid, deep]):
            assert_search_is_reference(sys, targets, bound)
    assert [explore(sys, bound).complete for bound in (242, 243, 244)] == [
        False, True, True,
    ]


# ------------------------------------------------------------------ the state record

class Named:
    """Unhashable, but compares equal to the interaction name it wraps."""

    __hash__ = None

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return other == self.name

    def __repr__(self):
        return f"Named({self.name!r})"


def raised(call, *args):
    """The text of the `ModelError` that `call(*args)` raises, else None."""
    try:
        call(*args)
    except ModelError as e:
        return str(e)
    return None


def record_systems():
    """(id, system) pairs for the state record: every system document of
    fixtures/, ring(3) of both kinds and some random systems."""
    for path in sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")):
        text = path.read_text()
        if "interactions" in json.loads(text):
            yield path.stem, parse_system(text)
    for nondet in (False, True):
        yield f"ring(3,{'nondet' if nondet else 'det'})", ring(3, nondet)
    for seed in ENGINE_EQUIVALENCE_SEEDS[:20]:
        yield f"random({seed})", gen_random_system(GenParams(seed=seed))


RECORD_SYSTEMS = dict(record_systems())


@pytest.mark.parametrize("label", RECORD_SYSTEMS)
def test_the_state_record_never_changes_an_answer(label):
    # a walk of 24 seeded steps: at each state, the three per-state calls
    # answer the state tuple itself, asked again and again, as they answer
    # a list (never remembered) and an equal fresh tuple (not yet asked)
    sys = RECORD_SYSTEMS[label]
    rules = sorted(compile_system(sys).rule_index)
    rng = random.Random(0)
    q = sys.initial_state()
    for _ in range(24):
        listed = list(q)
        enabled = enabled_interactions(sys, listed)
        succs = successors(sys, listed)
        firsts = {name: step(sys, listed, name) for name in enabled}
        # a disabled, an unknown, an unhashable and an unhashable but equal name
        bad = [
            *(name for name in rules if name not in enabled),
            "gone", ["x"], *(Named(name) for name in rules),
        ]
        refusals = [raised(step, sys, tuple(listed), name) for name in bad]
        assert None not in refusals
        for _ in range(2):
            assert enabled_interactions(sys, q) == enabled
            got = successors(sys, q)
            assert got == succs
            got.append(("gone", q))  # the next answer is a new list
            assert successors(sys, q) == succs
            assert [raised(step, sys, q, name) for name in bad] == refusals
            assert {name: step(sys, q, name) for name in enabled} == firsts
        for other in (tuple(listed), list(q)):
            assert enabled_interactions(sys, other) == enabled
            assert successors(sys, other) == succs
            assert {name: step(sys, other, name) for name in enabled} == firsts
            assert [raised(step, sys, other, name) for name in bad] == refusals
        if not enabled:
            break
        successors(sys, q)
        name = rng.choice(sorted(enabled))
        q = step(sys, q, name)
        assert q == firsts[name]


def per_state_answer(system, q, call):
    """What one per-state call answers: `("enabled",)`, `("successors",)`
    or `("step", name)`, as its value or its `ModelError` text."""
    try:
        if call[0] == "enabled":
            return enabled_interactions(system, q)
        if call[0] == "successors":
            return successors(system, q)
        return step(system, q, call[1])
    except ModelError as e:
        return str(e)


def thread_answers(make, at_least: int) -> list:
    """What four threads get wrong, making 5000 mixed per-state calls each
    on the same (at least `at_least`) state tuples of a fresh copy of
    `make()`, whose engine has built no rule yet, against the answers of
    one thread on another copy.  Each call may find the record of another
    thread's state, and may build a rule another thread is building; a
    tiny switch interval lets a thread be interrupted anywhere."""
    system = make()
    states = sorted(explore(system).states)
    assert len(states) >= at_least
    calls = [("enabled",), ("successors",)]
    calls += [("step", name) for name in compile_system(system).rule_index]
    expected = {
        (q, call): per_state_answer(system, q, call) for q in states for call in calls
    }
    system = make()
    assert not any(compile_system(system).rules)
    wrong: list = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(5000):
                q, call = rng.choice(states), rng.choice(calls)
                got = per_state_answer(system, q, call)
                if got != expected[q, call]:
                    wrong.append((q, call, got))
        except Exception as e:  # a thread's error would not fail the test
            wrong.append(repr(e))

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        setswitchinterval(interval)
    return wrong


def test_threads_sharing_an_engine_get_the_single_threaded_answers():
    params = GenParams(seed=17, max_components=5, max_states=5, max_interactions=12,
                       max_interaction_size=2)
    assert thread_answers(lambda: gen_random_system(params), 40) == []
    assert thread_answers(lambda: compile_lsa(palindrome(), "aabbaa"), 29) == []


# ------------------------------------------------------------------ pinned results
# What `explore` and `is_reachable` return on the random systems and on the
# rings, at bounds None, 1, 3 and each system's exact state count: a random
# system's target is its last component in its last state, and a ring has a
# deep and a mid target.  `search_results.json` holds the table as the
# search wrote it before it counted fixed fan-out rules in its split (one
# system per line); the search must keep every entry.

SEARCH_RESULTS = Path(__file__).resolve().parent / "search_results.json"


def search_cases():
    """(label, system, {target label: target}) for each pinned system."""
    for seed in ENGINE_EQUIVALENCE_SEEDS:
        sys = gen_random_system(GenParams(seed=seed))
        last = sys.model.components[-1]
        yield f"seed {seed}", sys, {
            "last": StatePredicate.of({last: sys.behaviors[last].states[-1]}),
        }
    for k in range(3, 10):
        for nondet in (False, True):
            yield f"ring {k} {'nondet' if nondet else 'det'}", ring(k, nondet), {
                "deep": StatePredicate.of({f"c{i}": "q2" for i in range(k)}),
                "mid": StatePredicate.of({f"c{k - 2}": "q1", f"c{k - 1}": "q2"}),
            }


def search_results() -> dict[str, dict[str, list]]:
    table = {}
    for label, sys, targets in search_cases():
        cases = table[label] = {}
        for bound in (None, 1, 3, len(explore(sys).states)):
            got = explore(sys, bound)
            cases[f"explore {bound}"] = [len(got.states), got.transitions, got.complete]
            for name, target in targets.items():
                r = is_reachable(sys, target, bound)
                cases[f"reach {name} {bound}"] = [
                    r.reachable, r.trace, r.states_explored,
                    r.transitions_explored, r.complete,
                ]
    return table


def test_search_results_are_pinned():
    assert search_results() == json.loads(SEARCH_RESULTS.read_text())


# ------------------------------------------------------------------ rules built on first use
# An engine builds a rule's tables when a search, `successors` or `parts`
# first needs the rule.  The order in which rules are built changes no
# rule, no fixed rule and no answer, and a line search builds only the
# rules it meets enabled.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def rule_of(eng, k):
    """Rule k of `eng`, as the engine's own readers take it."""
    return eng.rules[k] or eng.rule(k)


def built(eng, order=None):
    """`eng` with every rule built, in `order` (default: by index)."""
    for k in eng.every if order is None else order:
        rule_of(eng, k)
    return eng


def order_systems():
    """(label, factory) of every `ENGINE_EQUIVALENCE_SEEDS` random system,
    every system document of fixtures/ and a compiled line system of each
    machine document there."""
    for seed in ENGINE_EQUIVALENCE_SEEDS:
        yield f"seed {seed}", lambda seed=seed: gen_random_system(GenParams(seed=seed))
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        if "interactions" in json.loads(text):
            yield path.stem, lambda text=text: parse_system(text)
        else:
            machine = parse_dtm(text)
            word = machine.input_alphabet[0] * 3
            yield path.stem, lambda machine=machine, word=word: compile_lsa(machine, word)


ORDER_SYSTEMS = dict(order_systems())


@pytest.mark.parametrize("label", ORDER_SYSTEMS)
def test_the_order_rules_are_built_in_changes_nothing(label):
    make = ORDER_SYSTEMS[label]
    n = len(compile_system(make()).rules)
    pinned = json.loads(SEARCH_RESULTS.read_text()).get(label)
    shuffled = list(range(n))
    random.Random(label).shuffle(shuffled)
    engines = []
    for order in (range(n), range(n - 1, -1, -1), shuffled):
        sys = make()
        eng = built(compile_system(sys), order)
        engines.append(eng)
        # a (component, port) table is one list, whichever rule built it
        tables: dict = {}
        for a, (name, parts) in zip(eng.ordered, eng.rules):
            assert name == a.name
            for ci, table in parts:
                port = next(p.port for p in a.ports if eng.comp_index[p.component] == ci)
                assert tables.setdefault((ci, port), table) is table
        if pinned is not None:  # a random system: its targets are pinned too
            last = sys.model.components[-1]
            target = StatePredicate.of({last: sys.behaviors[last].states[-1]})
            for key, want in pinned.items():
                kind, *_, bound = key.split()
                bound = None if bound == "None" else int(bound)
                if kind == "explore":
                    got = explore(sys, bound)
                    assert [len(got.states), got.transitions, got.complete] == want
                else:
                    r = is_reachable(sys, target, bound)
                    assert [
                        r.reachable, r.trace, r.states_explored,
                        r.transitions_explored, r.complete,
                    ] == want
        for q in sorted(explore(sys).states):
            assert successors(sys, q) == reference_successors(sys, q)
    first = engines[0]
    for eng in engines[1:]:
        assert eng.rules == first.rules
        assert eng.fixed == first.fixed


LAZY_MACHINES = {
    "even_a": even_a,
    "first_last": first_last,
    "ping_pong": lambda: parse_dtm((FIXTURES / "ping_pong.json").read_text()),
}


@pytest.mark.parametrize("machine", LAZY_MACHINES)
def test_a_line_search_builds_only_the_rules_it_meets_enabled(machine):
    # a line system's runs are chains with no still rule, so the search
    # expands every state it finds but the hit, and builds each rule
    # enabled at one of them, and no other
    dtm = LAZY_MACHINES[machine]()
    words = [
        "".join(w)
        for n in range(7)
        for w in itertools.product(dtm.input_alphabet, repeat=n)
    ]
    for word in words:
        sys = compile_lsa(dtm, word)
        eng = compile_system(sys)
        assert not any(eng.rules) and eng.fixed == {} and eng.still == 0
        targets = accept_predicate(dtm, word)
        is_reachable(sys, targets)
        # the reference runs on a copy, whose engine builds every rule it lists
        other = compile_lsa(dtm, word)
        parents, _, _, hit = reference_search(other, targets)
        enabled = set()
        for q in parents:
            if q != hit:
                enabled |= enabled_interactions(other, q)
        built_names = {rule[0] for rule in eng.rules if rule}
        assert built_names == enabled, word


def test_a_later_predicate_filed_with_a_failing_one_still_matches():
    # both predicates are filed under c0=q0; at the hit (q0, q0, q1) the
    # first one fails at c1 and the second one holds
    sys = ring(3, False)
    fails = StatePredicate.of({"c0": "q0", "c1": "q2", "c2": "q1"})
    holds = StatePredicate.of({"c0": "q0", "c2": "q1"})
    assert is_reachable(sys, [fails, holds]).trace == ["t_2"]
    for bound in (None, 1, 3):
        assert_search_is_reference(sys, [fails, holds], bound)
        assert_search_is_reference(sys, [holds, fails], bound)


def test_search_past_a_machine_word_is_the_reference_bfs():
    # 14 cells of 27 local states each: codes need more than 64 bits
    for word in ("abbaabbaabba", "abbaabbaabab"):
        sys = compile_lsa(palindrome(), word)
        assert math.prod(len(b.states) for b in sys.behaviors.values()) > 2**64
        targets = accept_predicate(palindrome(), word)
        for bound in (None, 30):
            assert_search_is_reference(sys, targets, bound)


def test_hit_counts_every_successor_of_its_parent():
    # the target is the first of the initial state's two successors; the
    # count at the hit still includes the second
    sys = client_server(2)
    result = is_reachable(sys, StatePredicate.of({"c1": "connected"}))
    assert result.trace == ["connect_S_c1"]
    assert (result.states_explored, result.transitions_explored) == (2, 2)
    assert_search_is_reference(sys, [StatePredicate.of({"c1": "connected"})])


def test_a_linked_path_follows_only_the_links_the_search_kept():
    # x and y each move once, by `a` and `b`: the search finds (x1, y1)
    # first from (x1, y0), so the path through (x0, y1) is not linked
    sys = small_system(
        {
            "x": (("x0", "x1", "x2"), [("x0", "p", "x1")]),
            "y": (("y0", "y1"), [("y0", "p", "y1")]),
        },
        {"a": [("x", "p")], "b": [("y", "p")]},
    )
    result = is_reachable(sys, StatePredicate.of({"x": "x2"}))
    assert (result.reachable, result.states_explored) == (False, 4)
    eng = compile_system(sys)
    x0, x1 = (eng.state_index[0][s] for s in ("x0", "x1"))
    y0, y1 = (eng.state_index[1][s] for s in ("y0", "y1"))
    assert linked_path(result, eng, [(0, x1, 1, y0), (0, x1, 1, y1)]) == eng.pack(
        ("x1", "y1")
    )
    assert linked_path(result, eng, [(0, x0, 1, y1), (0, x1, 1, y1)]) is None
    # a cell that lacks the state, and a result that keeps no links
    assert linked_path(result, eng, [(0, None, 1, y0)]) is None
    assert linked_path(replace(result), eng, []) is None
    assert linked_path(result, eng, []) == (eng.initial_code, eng.initial)


def fire_calls(monkeypatch):
    """Count calls through the class attribute `Engine.fire`."""
    calls = []
    original = Engine.fire

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(Engine, "fire", counted)
    return calls


def test_the_search_takes_a_one_participant_rules_steps_itself(monkeypatch):
    # a ring's moving rules are its ticks, each with one participant; a
    # compiled line's rules all have two, so each state fires once
    calls = fire_calls(monkeypatch)
    assert explore(ring(5, True)).complete
    det = ring(5, False)
    deep = StatePredicate.of({f"c{i}": "q2" for i in range(5)})
    mid = StatePredicate.of({"c3": "q1", "c4": "q2"})
    assert is_reachable(det, deep).reachable and is_reachable(det, mid).reachable
    assert calls == []
    sys = compile_lsa(even_a(), "aaaa")
    result = is_reachable(sys, accept_predicate(even_a(), "aaaa"))
    assert result.reachable and result.states_explored == 6
    assert len(calls) == 5
    # `a` has one participant but two targets from x0 and one from x1, so
    # the search fires it and counts its steps; `b` and `d` it never fires
    calls.clear()
    sys = fan_system()
    eng = compile_system(sys)
    parts = {name: eng.parts(name) for name in eng.rule_index}
    states = explore(sys).states
    fired = [parts for _, _, parts in calls]
    assert fired.count(parts["a"]) == sum(q[0] != "x2" for q in states) > 0
    assert parts["c"] in fired and parts["e"] in fired
    assert parts["b"] not in fired and parts["d"] not in fired


def still_names(sys):
    """The names of the engine's still rules."""
    eng = compile_system(sys)
    return {name for name, k in eng.rule_index.items() if eng.still >> k & 1}


def small_system(behaviors, interactions):
    """A system from {component: (states, transitions)}, initial state the
    first listed, and {interaction name: [(component, port), ...]}."""
    comps = tuple(behaviors)
    ports = {
        c: tuple(sorted({port for _, port, _ in moves}))
        for c, (_, moves) in behaviors.items()
    }
    model = InteractionModel(
        comps,
        ports,
        tuple(
            Interaction(name, tuple(PortId(c, p) for c, p in parts))
            for name, parts in interactions.items()
        ),
    )
    return InteractionSystem(
        model,
        {
            c: LocalBehavior(states, frozenset(moves), states[0])
            for c, (states, moves) in behaviors.items()
        },
    )


def fan_system():
    """One rule of each kind of fan-out: `a` is x's alone, with two targets
    from x0 and one from x1 and from the unreachable x3; `b` is y's alone,
    with two targets wherever y enables it (y2 does not); `d` is y's alone,
    with one target; `c` and `e` have two participants each."""
    return small_system(
        {
            "x": (
                ("x0", "x1", "x2", "x3"),
                {
                    ("x0", "go", "x1"), ("x0", "go", "x2"),
                    ("x1", "go", "x2"), ("x3", "go", "x3"),
                },
            ),
            "y": (
                ("y0", "y1", "y2"),
                {
                    ("y0", "t", "y1"), ("y0", "t", "y2"), ("y1", "t", "y0"),
                    ("y1", "t", "y2"), ("y2", "m", "y0"),
                },
            ),
        },
        {
            "a": [("x", "go")],
            "b": [("y", "t")],
            "c": [("x", "go"), ("y", "m")],
            "d": [("y", "m")],
            "e": [("x", "go"), ("y", "t")],
        },
    )


def behavior_count(sys, states):
    """The transitions out of `states` straight off the behaviors: per state
    and interaction, the product of its participants' target counts (0
    where one of them disables its port)."""
    comps = sys.model.components
    total = 0
    for q in states:
        for a in sys.model.interactions:
            n = 1
            for p in a.ports:
                here = q[comps.index(p.component)]
                moves = sys.behaviors[p.component].transitions
                n *= len([t for s, port, t in moves if (s, port) == (here, p.port)])
            total += n
    return total


COUNT_SYSTEMS = {
    "fan": fan_system,
    "ring det": lambda: ring(4, False),
    "ring nondet": lambda: ring(4, True),
    "two participants": lambda: client_server(2),
    "two nondet participants": index_order_system,
    "one nondet participant": nondet_system,
}


class TestTransitionCount:
    """The search counts each enabled still rule and each enabled
    one-participant rule of one fan-out once per enabledness mask, and
    every other rule by the steps `fire` returns; the totals are the
    behaviors' own."""

    def test_fixed_rules_are_the_one_participant_rules_of_one_fan_out(self):
        def fans(sys):
            eng = built(compile_system(sys))
            return {eng.rules[k][0]: fan for k, (_, _, fan) in eng.fixed.items()}

        assert fans(fan_system()) == {"b": 2, "d": 1}
        for nondet in (False, True):
            assert fans(ring(4, nondet)) == {f"t_{i}": 2 if nondet else 1 for i in range(4)}

    @pytest.mark.parametrize("label", COUNT_SYSTEMS)
    def test_explore_counts_the_behaviors_transitions(self, label):
        # a truncated search still expands every state it discovered
        sys = COUNT_SYSTEMS[label]()
        for bound in (None, 1, 2, 3, 5):
            result = explore(sys, bound)
            assert result.transitions == behavior_count(sys, result.states)

    def test_a_full_search_counts_the_behaviors_transitions(self):
        sys = fan_system()
        states = explore(sys).states
        got = is_reachable(sys, StatePredicate.of({"x": "x3"}))
        assert (got.reachable, got.states_explored) == (False, len(states))
        assert got.transitions_explored == behavior_count(sys, states)

    @pytest.mark.parametrize("hit, rule", [("x1", "a"), ("y1", "b")])
    def test_a_hit_counts_its_parents_transitions_once(self, hit, rule):
        # from (x0, y0) the fired `a` reaches x1 first, while the fixed `b`,
        # counted in the split, and the fired `e` come later; y1 is reached
        # by `b` itself, after `a` and before `e`
        sys = fan_system()
        target = StatePredicate.of({hit[0]: hit})
        got = is_reachable(sys, target)
        assert got.trace == [rule]
        initial = [sys.initial_state()]
        assert got.transitions_explored == behavior_count(sys, initial) == 8
        assert (
            got.reachable, got.trace, got.states_explored,
            got.transitions_explored, got.complete,
        ) == reference_reach(sys, [target])


class TestStillRules:
    """A still rule is one none of whose ports has a moving transition: the
    search counts it without firing it."""

    @pytest.mark.parametrize("nondet", [False, True], ids=["det", "nondet"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_ring_handshakes_are_still(self, k, nondet):
        assert still_names(ring(k, nondet)) == {f"s_{i}" for i in range(k)}

    def test_fixtures_have_none(self):
        systems = [client_server(r) for r in range(1, 5)]
        systems += [pipeline(n) for n in range(2, 6)]
        systems += [compile_lsa(even_a(), w) for w in ("", "a", "aa", "aaa")]
        systems += [compile_lsa(palindrome(), w) for w in ("", "ab", "abba", "aab")]
        for sys in systems:
            assert still_names(sys) == set()

    def test_a_port_that_moves_somewhere_is_not_still(self):
        sys = small_system(
            {"x": (("q0", "q1"), {("q0", "p", "q0"), ("q1", "p", "q0")})},
            {"a": [("x", "p")]},
        )
        assert still_names(sys) == set()

    def test_a_still_port_beside_a_moving_one_is_not_still(self):
        sys = small_system(
            {
                "x": (("q0", "q1"), {("q0", "p", "q0"), ("q1", "p", "q1")}),
                "y": (("r0", "r1"), {("r0", "m", "r1")}),
            },
            {"a": [("x", "p"), ("y", "m")]},
        )
        assert still_names(sys) == set()

    def test_rules_sharing_a_still_port_are_both_still(self):
        sys = small_system(
            {
                "x": (("q0", "q1"), {("q0", "p", "q0"), ("q0", "go", "q1")}),
                "y": (("r0",), {("r0", "h", "r0")}),
            },
            {"a": [("x", "p")], "b": [("x", "p"), ("y", "h")], "c": [("x", "go")]},
        )
        assert still_names(sys) == {"a", "b"}

    def test_a_rule_still_where_enabled_is_still(self):
        # q1 disables p; where p is enabled it only self-loops
        sys = small_system(
            {"x": (("q0", "q1"), {("q0", "p", "q0"), ("q0", "go", "q1")})},
            {"a": [("x", "p")], "b": [("x", "go")]},
        )
        assert still_names(sys) == {"a"}
        assert enabled_interactions(sys, ("q1",)) == set()
        result = explore(sys)
        assert (result.states, result.transitions) == ({("q0",), ("q1",)}, 2)
        assert_search_is_reference(sys, [StatePredicate.of({"x": "q1"})])


def test_enough_random_systems_have_a_still_rule():
    # still rules are common among these draws (117 of 200, 33 of the
    # first 60), so the reference-BFS tests over them exercise the skip
    engines = [
        compile_system(gen_random_system(GenParams(seed=seed)))
        for seed in ENGINE_EQUIVALENCE_SEEDS
    ]
    assert sum(bool(eng.still) for eng in engines) >= 100


@pytest.mark.parametrize("seed", ENGINE_EQUIVALENCE_SEEDS)
def test_a_still_rule_fires_back_to_its_state(seed):
    # the skip rests on this: firing an enabled still rule from any
    # reachable state has one step, 0, back to that state
    sys = gen_random_system(GenParams(seed=seed))
    eng = compile_system(sys)
    for q in reference_search(sys)[0]:
        _, digits = eng.pack(q)
        for k in eng.enabled(digits):
            if eng.still >> k & 1:
                assert eng.fire(digits, rule_of(eng, k)[1]) == (0,)


def test_hit_counts_each_later_successor_once():
    # from the initial state: `a` (two participants, x with two targets)
    # gives 2 successors, then `b` reaches the target, then the still `c`
    # and the moving `d` give 1 each; the split counts `c` before any rule
    # fires, so the hit adds only `d`
    sys = small_system(
        {
            "x": (("x0", "x1", "x2"), {("x0", "p", "x1"), ("x0", "p", "x2")}),
            "y": (("y0", "y1", "y2"), {("y0", "p", "y1"), ("y0", "m", "y2")}),
            "z": (("z0", "z1"), {("z0", "go", "z1"), ("z0", "h", "z0"), ("z1", "h", "z1")}),
        },
        {
            "a": [("x", "p"), ("y", "p")],
            "b": [("z", "go")],
            "c": [("z", "h")],
            "d": [("y", "m")],
        },
    )
    assert still_names(sys) == {"c"}
    target = StatePredicate.of({"z": "z1"})
    got = is_reachable(sys, target)
    assert got.trace == ["b"]
    assert got.transitions_explored == len(successors(sys, ("x0", "y0", "z0"))) == 5
    assert (
        got.reachable, got.trace, got.states_explored,
        got.transitions_explored, got.complete,
    ) == reference_reach(sys, [target]) == (True, ["b"], 4, 5, True)


def palindrome() -> DTM:
    """Erase the leftmost symbol, carry it to the right end, compare and
    erase there, walk back.  Its 18 rules give a word of length n
    18·(n+1) interactions, more than 64 from n = 3 on."""
    delta = {
        ("start", "a"): ("carry_a", "_", 1),
        ("start", "b"): ("carry_b", "_", 1),
        ("start", "_"): ("accept", "_", -1),
        ("back", "a"): ("back", "a", -1),
        ("back", "b"): ("back", "b", -1),
        ("back", "_"): ("start", "_", 1),
    }
    for c, other in (("a", "b"), ("b", "a")):
        delta[f"carry_{c}", "a"] = (f"carry_{c}", "a", 1)
        delta[f"carry_{c}", "b"] = (f"carry_{c}", "b", 1)
        delta[f"carry_{c}", "_"] = (f"check_{c}", "_", -1)
        delta[f"check_{c}", c] = ("back", "_", -1)
        delta[f"check_{c}", other] = ("reject", other, -1)
        delta[f"check_{c}", "_"] = ("accept", "_", -1)
    states = ("start", "carry_a", "carry_b", "check_a", "check_b", "back")
    return DTM(
        ("_", "a", "b"), ("a", "b"), "_", states + ("accept", "reject"),
        "start", "accept", "reject", delta,
    )


def reference_successors(sys, q):
    """The successors of q straight from the local behaviors: interactions
    by name, each one's participants in component order with their targets
    ascending by declared state index, the last participant's fastest."""
    comps = sys.model.components
    out = []
    for a in sorted(sys.model.interactions, key=lambda a: a.name):
        parts = sorted(a.ports, key=lambda p: comps.index(p.component))
        choices = []
        for p in parts:
            b = sys.behaviors[p.component]
            here = q[comps.index(p.component)]
            targets = {dst for src, port, dst in b.transitions if (src, port) == (here, p.port)}
            choices.append(sorted(targets, key=b.states.index))
        for combo in itertools.product(*choices):
            succ = dict(zip(comps, q))
            succ.update(zip((p.component for p in parts), combo))
            out.append((a.name, tuple(succ[c] for c in comps)))
    return out


def wide_systems():
    """Systems with more interactions than one 64-bit machine word."""
    for word in ("abba", "abab", "aabaa"):
        yield compile_lsa(palindrome(), word)
    for seed in range(60):
        sys = gen_random_system(GenParams(seed, max_ports=8, max_interactions=100))
        if len(sys.model.interactions) > 64:
            yield sys


def test_canonical_order_past_one_machine_word():
    systems = list(wide_systems())
    assert len(systems) >= 10
    for sys in systems:
        assert len(sys.model.interactions) > 64
        eng = compile_system(sys)
        for q in sorted(explore(sys).states):
            assert eng.names(eng.pack(q)[0]) == q
            expected = reference_successors(sys, q)
            assert successors(sys, q) == expected
            assert enabled_interactions(sys, q) == {name for name, _ in expected}
            firsts = {}
            for name, succ in expected:
                firsts.setdefault(name, succ)
            for name, succ in firsts.items():
                assert step(sys, q, name) == succ


def decoder_systems():
    """(id, system) pairs for the decoders: no component, one, rings of
    both kinds, random systems, and line systems whose codes pass 2**64."""
    yield "empty", InteractionSystem(InteractionModel((), {}, ()), {})
    yield "one", nondet_system()
    for k in range(3, 9):
        for nondet in (False, True):
            yield f"ring({k},{'nondet' if nondet else 'det'})", ring(k, nondet)
    for seed in ENGINE_EQUIVALENCE_SEEDS[:60]:
        yield f"random({seed})", gen_random_system(GenParams(seed=seed))
    for word in ("abbaabbaabba", "abbaabbaabab"):
        yield f"palindrome({word})", compile_lsa(palindrome(), word)


DECODER_SYSTEMS = dict(decoder_systems())


@pytest.mark.parametrize("label", DECODER_SYSTEMS)
def test_the_decoders_agree_with_names(label):
    # `decode` (explore's, by halves) and `renamed` (successors' and
    # step's, at the participants) read what `names` reads off a code
    sys = DECODER_SYSTEMS[label]
    eng = compile_system(sys)
    seen = eng.search(None)[0]
    states = {eng.names(code) for code in seen}
    assert explore(sys).states == states
    codes = list(seen)
    for given in (seen, set(codes), codes + codes[::-1]):
        assert eng.decode(given) == states
    for code in codes:
        q = eng.names(code)
        by_code = eng.successors(code, eng.pack(q)[1])
        expected = [(name, eng.names(succ)) for name, succ in by_code]
        assert successors(sys, q) == expected
        firsts = {}
        for name, succ in expected:
            firsts.setdefault(name, succ)
        assert set(firsts) == enabled_interactions(sys, q)
        for name, succ in firsts.items():
            assert step(sys, q, name) == succ


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
