"""Global semantics: enabledness, stepping, exploration, reachability."""

import itertools
import math
import random

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
    step,
    successors,
)
from interax.fixtures import client_server, even_a, pipeline
from interax.reduce_linear import accept_predicate, compile_lsa
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

    def test_foreign_state_rejected_with_the_exact_message(self):
        sys = client_server(1)
        with pytest.raises(ModelError, match="^global state has 1 entries, expected 2$"):
            successors(sys, ("busy",))
        with pytest.raises(ModelError, match="^no such state: 'gone' in component c1$"):
            enabled_interactions(sys, ("busy", "gone"))


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


def still_names(sys):
    """The names of the engine's still rules."""
    eng = compile_system(sys)
    return {name for k, (name, _) in enumerate(eng.rules) if eng.still >> k & 1}


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
                assert eng.fire(digits, eng.rules[k][1]) == (0,)


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
