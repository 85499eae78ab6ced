"""Brute-force oracle, random system generation, end-to-end checkers."""

import itertools
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest

from interax import (
    GenParams,
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    PortId,
    Verdict,
    brute_force_reachable,
    check_theorem1,
    check_theorem2,
    compile_lsa,
    explore,
    gen_random_system,
    starify,
    validate_system,
)
from interax import oracle, semantics
from interax.fixtures import client_server, even_a, first_last, pipeline
from interax.formats import parse_dtm
from interax.oracle import STAR_EQUIVALENCE_SEEDS, _lockstep_check

from test_bench_contract import spy
from test_mutants import CASES as MUTANT_CASES, mutants
from test_semantics import palindrome, ring

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestBruteForce:
    def test_client_server_r2_three_states(self):
        assert len(brute_force_reachable(client_server(2))) == 3

    def test_pipeline_round_trip_counts(self):
        # the token walks up and back: 2*(n-1) distinct global states
        for n in range(2, 7):
            assert len(brute_force_reachable(pipeline(n))) == 2 * (n - 1)

    def test_single_component_deadlock(self):
        b = LocalBehavior(("q0", "q1"), frozenset({("q1", "p", "q1")}), "q0")
        model = InteractionModel(
            ("k",), {"k": ("p",)}, (Interaction("a", (PortId("k", "p"),)),)
        )
        sys = InteractionSystem(model, {"k": b})
        assert brute_force_reachable(sys) == {("q0",)}

    def test_product_guard(self):
        # 2 * 4^6 * 2 = 16384 product states exceed the guard
        with pytest.raises(ModelError, match="product too large"):
            brute_force_reachable(pipeline(8))

    def test_undeclared_transition_target_refused(self):
        # the bad transition never fires: q1 is unreachable
        b = LocalBehavior(
            ("q0", "q1"),
            frozenset({("q0", "p", "q0"), ("q1", "p", "gone")}),
            "q0",
        )
        model = InteractionModel(
            ("k",), {"k": ("p",)}, (Interaction("a", (PortId("k", "p"),)),)
        )
        sys = InteractionSystem(model, {"k": b})
        with pytest.raises(ModelError, match="transition target of k outside"):
            brute_force_reachable(sys)

    def test_undeclared_initial_state_refused(self):
        b = LocalBehavior(("q0",), frozenset({("q0", "p", "q0")}), "gone")
        model = InteractionModel(
            ("k",), {"k": ("p",)}, (Interaction("a", (PortId("k", "p"),)),)
        )
        sys = InteractionSystem(model, {"k": b})
        with pytest.raises(ModelError, match="initial state of k outside"):
            brute_force_reachable(sys)

    def test_component_without_behavior_refused(self):
        b = LocalBehavior(("q0",), frozenset({("q0", "p", "q0")}), "q0")
        model = InteractionModel(
            ("k", "b"),
            {"k": ("p",), "b": ("p",)},
            (Interaction("a", (PortId("k", "p"), PortId("b", "p"))),),
        )
        sys = InteractionSystem(model, {"k": b})
        with pytest.raises(ModelError, match="^component b has no behavior"):
            brute_force_reachable(sys)

    def test_interaction_on_unknown_component_refused(self):
        b = LocalBehavior(("q0",), frozenset({("q0", "p", "q0")}), "q0")
        model = InteractionModel(
            ("k",), {"k": ("p",)}, (Interaction("a", (PortId("c", "p"),)),)
        )
        sys = InteractionSystem(model, {"k": b})
        with pytest.raises(ModelError, match="^interaction a names component c,"):
            brute_force_reachable(sys)

    def test_matches_engine_on_random_systems(self):
        for seed in range(60):
            sys = gen_random_system(GenParams(seed=seed))
            assert brute_force_reachable(sys) == explore(sys).states, seed

    def test_monotone_under_added_interactions(self):
        import random

        grown = 0
        for seed in range(40):
            sys = gen_random_system(GenParams(seed=seed))
            rng = random.Random(seed + 5000)
            comps = [c for c in sys.model.components if sys.model.ports[c]]
            if len(comps) < 2:
                continue
            a, b = rng.sample(comps, 2)
            extra = Interaction(
                "extra",
                (
                    PortId(a, rng.choice(sys.model.ports[a])),
                    PortId(b, rng.choice(sys.model.ports[b])),
                ),
            )
            if any(i.port_set() == extra.port_set() for i in sys.model.interactions):
                continue
            bigger = InteractionSystem(
                InteractionModel(
                    sys.model.components,
                    sys.model.ports,
                    (*sys.model.interactions, extra),
                ),
                sys.behaviors,
            )
            before = brute_force_reachable(sys)
            after = brute_force_reachable(bigger)
            assert before <= after, seed
            grown += 1
        assert grown >= 10  # the sample actually exercised the property


def reference_sweep(sys):
    """The oracle's former fixpoint, kept as a reference: sweep the whole
    reachable set in sorted order, expanding every state again, until a
    sweep adds no state."""
    components = sys.model.components
    local = []
    for c in components:
        table = {}
        for src, port, dst in sys.behaviors[c].transitions:
            table.setdefault((src, port), []).append(dst)
        local.append({k: sorted(set(v)) for k, v in table.items()})
    order = {c: k for k, c in enumerate(components)}
    participant_lists = [
        [(order[p.component], p.port) for p in a.ports] for a in sys.model.interactions
    ]
    reachable = {sys.initial_state()}
    changed = True
    while changed:
        changed = False
        for q in sorted(reachable):
            for parts in participant_lists:
                options = []
                for ci, port in parts:
                    targets = local[ci].get((q[ci], port))
                    if not targets:
                        options = None
                        break
                    options.append((ci, targets))
                if options is None:
                    continue
                for combo in itertools.product(*[t for _, t in options]):
                    succ = list(q)
                    for (ci, _), target in zip(options, combo):
                        succ[ci] = target
                    succ_t = tuple(succ)
                    if succ_t not in reachable:
                        reachable.add(succ_t)
                        changed = True
    return reachable


def assert_closed(sys, states):
    """A closure certificate read off the transition triples: `states` holds
    the initial state, and every successor of a member is a member."""
    comps = sys.model.components
    moves = {}
    for i, c in enumerate(comps):
        for src, port, dst in sys.behaviors[c].transitions:
            moves.setdefault((i, src, port), []).append((i, dst))
    parts = [[(comps.index(c), port) for c, port in a.ports] for a in sys.model.interactions]
    assert sys.initial_state() in states
    for q in states:
        for ports in parts:
            for combo in itertools.product(*(moves.get((i, q[i], p), ()) for i, p in ports)):
                succ = list(q)
                for i, dst in combo:
                    succ[i] = dst
                assert tuple(succ) in states, (q, combo)


STARIFIED_SOURCES = [
    *(pytest.param(("random", s), id=f"random-{s}") for s in STAR_EQUIVALENCE_SEEDS),
    *(pytest.param(("pipeline", n), id=f"pipeline-{n}") for n in range(2, 6)),
    *(pytest.param(("client_server", r), id=f"client_server-{r}") for r in range(1, 6)),
    *(pytest.param(("ring", k), id=f"ring-{k}-nondet") for k in (3, 4)),
]


def _source(family, size):
    if family == "random":
        return gen_random_system(GenParams(seed=size))
    if family == "ring":
        return ring(size, nondet=True)
    return {"pipeline": pipeline, "client_server": client_server}[family](size)


class TestDifferential:
    """The oracle against the engine, the former sweep and a closure
    certificate, on starified systems (which the engine otherwise never
    sees) and on plain random draws."""

    @pytest.mark.parametrize("source", STARIFIED_SOURCES)
    def test_starified(self, source):
        star = starify(_source(*source))
        got = brute_force_reachable(star)
        assert got == explore(star).states
        assert got == reference_sweep(star)
        assert_closed(star, got)

    @pytest.mark.parametrize("seed", range(60))
    def test_plain_random(self, seed):
        sys = gen_random_system(GenParams(seed=seed))
        got = brute_force_reachable(sys)
        assert got == reference_sweep(sys)
        assert_closed(sys, got)

    def test_certificate_rejects_a_missing_successor(self):
        sys = pipeline(3)
        states = brute_force_reachable(sys)
        states.discard(max(states - {sys.initial_state()}))
        with pytest.raises(AssertionError):
            assert_closed(sys, states)


def reversed_order(sys):
    """The same system with each interaction's ports, and the tuple of
    interactions, listed backwards."""
    model = sys.model
    interactions = tuple(
        Interaction(a.name, a.ports[::-1]) for a in reversed(model.interactions)
    )
    return InteractionSystem(
        InteractionModel(model.components, model.ports, interactions), sys.behaviors
    )


def closure_by_successors(sys):
    """The reachable set read off `semantics.successors`, state by state."""
    seen = {sys.initial_state()}
    todo = [*seen]
    while todo:
        for _, succ in semantics.successors(sys, todo.pop()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


def two_component_system(k_moves, m_moves, interactions):
    """Components k (states a, b, c) and m (states u, v, w), each starting
    in its first state; `interactions` maps a name to its (component, port)
    pairs, and each component's family is the ports they name."""
    model = InteractionModel(
        ("k", "m"),
        {
            c: tuple(sorted({p for ps in interactions.values() for d, p in ps if d == c}))
            for c in ("k", "m")
        },
        tuple(
            Interaction(name, tuple(PortId(c, port) for c, port in ports))
            for name, ports in interactions.items()
        ),
    )
    behaviors = {
        "k": LocalBehavior(("a", "b", "c"), frozenset(k_moves), "a"),
        "m": LocalBehavior(("u", "v", "w"), frozenset(m_moves), "u"),
    }
    return InteractionSystem(model, behaviors)


class TestCheckOrder:
    """The oracle checks each interaction's participants fewest enabling
    states first; neither that order nor the listing order changes what it
    reaches."""

    @pytest.mark.parametrize("seed", STAR_EQUIVALENCE_SEEDS)
    def test_reversed_listing_random(self, seed):
        sys = gen_random_system(GenParams(seed=seed))
        for s in (sys, starify(sys)):
            assert brute_force_reachable(reversed_order(s)) == brute_force_reachable(s)

    @pytest.mark.parametrize("k", (3, 4))
    def test_reversed_listing_ring(self, k):
        sys = ring(k, nondet=True)
        assert brute_force_reachable(reversed_order(sys)) == brute_force_reachable(sys)
        assert len(brute_force_reachable(sys)) == 3**k

    def test_port_without_transitions_never_fires(self):
        # m declares `dead` but no transition is labelled with it
        sys = two_component_system(
            {("a", "p", "b")},
            {("u", "go", "v")},
            {"x": [("k", "p"), ("m", "dead")], "g": [("m", "go")]},
        )
        assert validate_system(sys).ok
        assert semantics.successors(sys, ("a", "u")) == [("g", ("a", "v"))]
        assert brute_force_reachable(sys) == closure_by_successors(sys)
        assert brute_force_reachable(sys) == {("a", "u"), ("a", "v")}

    def test_two_targets_on_each_side_give_four_successors(self):
        sys = two_component_system(
            {("a", "p", "b"), ("a", "p", "c")},
            {("u", "r", "v"), ("u", "r", "w")},
            {"h": [("k", "p"), ("m", "r")]},
        )
        assert validate_system(sys).ok
        succs = {q for _, q in semantics.successors(sys, ("a", "u"))}
        assert succs == {("b", "v"), ("b", "w"), ("c", "v"), ("c", "w")}
        assert brute_force_reachable(sys) == closure_by_successors(sys)
        assert brute_force_reachable(sys) == {("a", "u"), *succs}

    def test_most_selective_participant_listed_last(self):
        # k enables p in all three states, m enables r only in u
        sys = two_component_system(
            {("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")},
            {("u", "r", "v"), ("v", "back", "w")},
            {"h": [("k", "p"), ("m", "r")], "back": [("m", "back")]},
        )
        assert validate_system(sys).ok
        assert brute_force_reachable(sys) == closure_by_successors(sys)
        assert brute_force_reachable(sys) == {("a", "u"), ("b", "v"), ("b", "w")}


class TestGenRandomSystem:
    def test_same_seed_identical(self):
        assert gen_random_system(GenParams(seed=11)) == gen_random_system(
            GenParams(seed=11)
        )

    def test_different_seeds_differ_somewhere(self):
        outputs = {str(gen_random_system(GenParams(seed=s))) for s in range(20)}
        assert len(outputs) > 1

    def test_thousand_samples_all_valid(self):
        for seed in range(1000):
            sys = gen_random_system(GenParams(seed=seed))
            assert validate_system(sys).ok, seed

    def test_interaction_size_bound_respected(self):
        params = GenParams(seed=3, max_interaction_size=2)
        for seed in range(50):
            sys = gen_random_system(GenParams(seed=seed, max_interaction_size=2))
            assert all(len(a.ports) <= 2 for a in sys.model.interactions)

    def test_bad_params_rejected(self):
        with pytest.raises(ModelError, match="max_components"):
            gen_random_system(GenParams(seed=0, max_components=0))

    @pytest.mark.parametrize("name", [f.name for f in fields(GenParams)[1:]])
    def test_every_bound_is_checked(self, name):
        with pytest.raises(ModelError, match=f"^{name} must be at least 1, got 0$"):
            gen_random_system(GenParams(seed=0, **{name: 0}))
        cap = next(f.metadata["cap"] for f in fields(GenParams) if f.name == name)
        with pytest.raises(ModelError, match=f"^{name} must be at most {cap}$"):
            gen_random_system(GenParams(seed=0, **{name: cap + 1}))

    def test_port_bound_allocates_no_port_list(self):
        # the port names used to be listed up front: 12.7 MB of peak here
        tracemalloc.start()
        try:
            sys = gen_random_system(GenParams(seed=1, max_ports=200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validate_system(sys).ok
        assert peak < 1_000_000


class TestCheckTheorem1:
    def test_even_a_agreement(self):
        m = even_a()
        for word in ("", "a", "aa", "aaa", "aaaa"):
            verdict = check_theorem1(m, word)
            assert verdict.agree, (word, verdict.details)

    def test_first_last_agreement(self):
        m = first_last()
        for word in ("", "0", "1", "01", "10", "0110", "01010"):
            assert check_theorem1(m, word).agree, word

    def test_details_mention_both_sides(self):
        verdict = check_theorem1(even_a(), "aa")
        assert "tm=accept" in verdict.details
        assert "reachable=True" in verdict.details
        assert "lockstep" in verdict.details

    def test_details_state_the_search_bound(self, monkeypatch):
        # one bound caps the run's steps and the search's states; the
        # default is the search's own, patched low here
        monkeypatch.setattr(oracle, "DEFAULT_MAX_STATES", 5)
        verdict = check_theorem1(even_a(), "a" * 10)
        assert (verdict.agree, verdict.complete) == (False, False)
        assert verdict.details == (
            "tm=step_limit in 5 steps; reachable=False (search stopped at 5 states); "
            "lockstep held for 5 steps"
        )

    def test_either_side_at_its_bound_leaves_the_verdict_undecided(self):
        # even_a accepts a^10 in 11 steps, whose 12 configurations the
        # search must all discover: a bound of 11 lets the run finish but
        # stops the search, and 12 decides
        verdict = check_theorem1(even_a(), "a" * 10, max_states=11)
        assert (verdict.agree, verdict.complete) == (False, False)
        assert verdict.details == (
            "tm=accept in 11 steps; reachable=False (search stopped at 11 states); "
            "lockstep held for 11 steps"
        )
        verdict = check_theorem1(even_a(), "a" * 10, max_states=12)
        assert (verdict.agree, verdict.complete) == (True, True)
        assert verdict.details == (
            "tm=accept in 11 steps; reachable=True; lockstep held for 11 steps"
        )

    def test_a_run_at_its_step_limit_is_undecided_though_the_search_ends(self):
        # ping_pong loops through 2 configurations, and Brent's detection
        # needs 3 steps to see it: a bound of 2 completes the search only
        m = parse_dtm((FIXTURES / "ping_pong.json").read_text())
        verdict = check_theorem1(m, "a", max_states=2)
        assert (verdict.agree, verdict.complete) == (False, False)
        assert verdict.details == (
            "tm=step_limit in 2 steps; reachable=False; lockstep held for 2 steps"
        )
        assert check_theorem1(m, "a", max_states=3) == Verdict(
            True, True, "tm=loop in 3 steps; reachable=False; lockstep held for 3 steps"
        )

    @pytest.mark.parametrize("value", [0, -1, 2.5, True], ids=repr)
    def test_the_bound_is_checked(self, value):
        with pytest.raises(ModelError, match="^max_states must be"):
            check_theorem1(even_a(), "aa", max_states=value)

    def test_machine_validated_before_it_runs(self):
        m = even_a()
        delta = {k: v for k, v in m.delta.items() if k != ("odd", "b")}
        with pytest.raises(ModelError, match="invalid machine: delta-not-total"):
            check_theorem1(replace(m, delta=delta), "a")


def _retarget_arrival(extra):
    """compile_lsa(even_a(), "aa") with cell 2's arrival of the head's first
    move, ("s,a", "A:even:a", "odd,a"), replaced by `extra` transitions."""
    sys_m = compile_lsa(even_a(), "aa")
    b = sys_m.behaviors["2"]
    transitions = b.transitions - {("s,a", "A:even:a", "odd,a")} | set(extra)
    cell = LocalBehavior(b.states, transitions, b.initial)
    return InteractionSystem(sys_m.model, {**sys_m.behaviors, "2": cell})


class TestLockstepCheck:
    @pytest.mark.parametrize(
        "arrival, message",
        [
            # one interaction with two local targets: two successors
            (
                [("s,a", "A:even:a", "odd,a"), ("s,a", "A:even:a", "odd,b")],
                "step 0: 2 successors, expected 1",
            ),
            (
                [("s,a", "A:even:a", "odd,b")],
                "step 0: successor mismatch via mv:even:a:1:2",
            ),
        ],
        ids=["two-successors", "mismatch"],
    )
    def test_failure_branches(self, arrival, message):
        mutated = _retarget_arrival(arrival)
        assert _lockstep_check(even_a(), "aa", mutated, 3) == (False, message)

    def test_successor_moving_a_third_cell_mismatches(self):
        # mv:even:a:1:2 also takes a new port of cell 3, which moves that
        # cell from its initial s,b to s,a: the head cells match the image,
        # cell 3 does not
        sys_m = compile_lsa(even_a(), "aa")
        model = sys_m.model
        interactions = tuple(
            replace(a, ports=(*a.ports, PortId("3", "X")))
            if a.name == "mv:even:a:1:2"
            else a
            for a in model.interactions
        )
        ports = {**model.ports, "3": (*model.ports["3"], "X")}
        b = sys_m.behaviors["3"]
        cell = replace(b, transitions=b.transitions | {("s,b", "X", "s,a")})
        mutated = InteractionSystem(
            InteractionModel(model.components, ports, interactions),
            {**sys_m.behaviors, "3": cell},
        )
        assert validate_system(mutated).ok
        assert _lockstep_check(even_a(), "aa", mutated, 3) == (
            False,
            "step 0: successor mismatch via mv:even:a:1:2",
        )

    def test_initial_state_must_be_the_image(self):
        sys_m = compile_lsa(even_a(), "aa")
        b = sys_m.behaviors["0"]
        cell = LocalBehavior(b.states, b.transitions, "s,a")
        mutated = InteractionSystem(sys_m.model, {**sys_m.behaviors, "0": cell})
        assert _lockstep_check(even_a(), "aa", mutated, 3) == (
            False,
            "initial state is not the image of the initial configuration",
        )


def _words(machine, longest):
    """Every word over the machine's input alphabet up to `longest` letters."""
    for n in range(longest + 1):
        for letters in itertools.product(machine.input_alphabet, repeat=n):
            yield "".join(letters)


def _fixture_dtm(name):
    return parse_dtm((FIXTURES / f"{name}.json").read_text())


def _expanding(monkeypatch):
    """Make `check_theorem1` expand every image in its lockstep, as when
    it is given no search result."""
    expand = oracle._lockstep_check
    monkeypatch.setattr(
        oracle, "_lockstep_check", lambda m, w, s, steps, reach=None: expand(m, w, s, steps)
    )


def _with_extra_move(source, target, word="a"):
    """compile_lsa(even_a(), word) plus an interaction `zz:extra` whose one
    port moves cell 1 from `source` to `target`.  Cell 1 holds the head in
    `even,a` first; on "a" the run rejects in 2 steps, with the head back
    on cell 1 in `reject,a`."""
    sys_m = compile_lsa(even_a(), word)
    model = sys_m.model
    b = sys_m.behaviors["1"]
    cell = replace(b, transitions=b.transitions | {(source, "X", target)})
    return InteractionSystem(
        InteractionModel(
            model.components,
            {**model.ports, "1": (*model.ports["1"], "X")},
            (*model.interactions, Interaction("zz:extra", (PortId("1", "X"),))),
        ),
        {**sys_m.behaviors, "1": cell},
    )


class TestLinkedLockstep:
    """The search's parent links and counts settle a lockstep that holds;
    where they do not, the lockstep expands each image, so every verdict
    keeps its bytes."""

    def test_links_give_the_expanded_verdicts(self, monkeypatch):
        cases = [
            (m, w)
            for m in (even_a(), first_last(), _fixture_dtm("ping_pong"), palindrome())
            for w in _words(m, 6)
        ]
        counter = _fixture_dtm("counter")
        cases += [(counter, "0" * n) for n in range(13)]
        linked = [check_theorem1(m, w) for m, w in cases]
        _expanding(monkeypatch)
        assert linked == [check_theorem1(m, w) for m, w in cases]
        assert sum(v.agree for v in linked) == len(cases)

    def test_links_give_the_expanded_verdicts_on_every_mutant(self, monkeypatch):
        # each deletes one local transition (see tests/test_mutants.py)
        cases = []
        for machine, word in MUTANT_CASES:
            m = machine()
            cases += [(m, word, mutant) for _, _, mutant in mutants(compile_lsa(m, word))]

        def verdicts():
            out = []
            for m, word, mutant in cases:
                monkeypatch.setattr(oracle, "compile_lsa", lambda *_: mutant)
                out.append(check_theorem1(m, word))
            return out

        linked = verdicts()
        _expanding(monkeypatch)
        assert linked == verdicts()
        assert sum(not v.agree for v in linked) == 58

    def test_an_accepting_check_expands_no_image(self, monkeypatch):
        calls = spy(monkeypatch, semantics.Engine, "successors")
        verdict = check_theorem1(_fixture_dtm("counter"), "0" * 6)
        assert verdict.details == (
            "tm=accept in 254 steps; reachable=True; lockstep held for 254 steps"
        )
        assert len(calls) == 0

    def test_a_rejecting_check_expands_only_the_last_image(self, monkeypatch):
        calls = spy(monkeypatch, semantics.Engine, "successors")
        verdict = check_theorem1(even_a(), "a" * 5)
        assert verdict.details == (
            "tm=reject in 6 steps; reachable=False; lockstep held for 6 steps"
        )
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "target, expansions",
        # back to the last image itself, the links settle it; a new state
        # is one the search finds beyond the images, so each step expands
        [("reject,a", 1), ("s,a", 2)],
        ids=["to-itself", "to-a-new-state"],
    )
    def test_an_extra_successor_of_the_last_image_keeps_the_verdict(
        self, target, expansions, monkeypatch
    ):
        mutated = _with_extra_move("reject,a", target)
        assert validate_system(mutated).ok
        monkeypatch.setattr(oracle, "compile_lsa", lambda *_: mutated)
        calls = spy(monkeypatch, semantics.Engine, "successors")
        # the lockstep checks the moves the run made, none out of its end
        assert check_theorem1(even_a(), "a") == Verdict(
            True, True, "tm=reject in 2 steps; reachable=False; lockstep held for 2 steps"
        )
        assert len(calls) == expansions

    def test_links_settle_a_search_its_bound_cut_short(self, monkeypatch):
        # the bound drops the last image's new successor, but the search
        # still expands every image it found and counts that successor
        mutated = _with_extra_move("reject,a", "s,a")
        monkeypatch.setattr(oracle, "compile_lsa", lambda *_: mutated)
        calls = spy(monkeypatch, semantics.Engine, "successors")
        verdict = check_theorem1(even_a(), "a", max_states=3)
        assert verdict == Verdict(
            False,
            False,
            "tm=reject in 2 steps; reachable=False (search stopped at 3 states); "
            "lockstep held for 2 steps",
        )
        assert len(calls) == 1
        _expanding(monkeypatch)
        assert check_theorem1(even_a(), "a", max_states=3) == verdict

    @pytest.mark.parametrize(
        "word, details",
        [
            ("a", "tm=reject in 2 steps; reachable=False"),
            ("aa", "tm=accept in 3 steps; reachable=True"),
        ],
        ids=["no-hit", "hit"],
    )
    def test_the_counts_catch_an_extra_successor_the_links_cannot_show(
        self, word, details, monkeypatch
    ):
        # a second way out of the first image, back to itself: the search
        # finds no new state and every link holds, but it counts one
        # transition too many, so the lockstep expands and names the step
        mutated = _with_extra_move("even,a", "even,a", word)
        monkeypatch.setattr(oracle, "compile_lsa", lambda *_: mutated)
        assert check_theorem1(even_a(), word) == Verdict(
            False, True, f"{details}; step 0: 2 successors, expected 1"
        )


class TestCheckTheorem2:
    def test_client_server_r1(self):
        verdict = check_theorem2(client_server(1))
        assert verdict.agree, verdict.details

    def test_pipeline_n3(self):
        assert check_theorem2(pipeline(3)).agree

    def test_random_batch(self):
        for seed in range(30):
            sys = gen_random_system(GenParams(seed=seed))
            verdict = check_theorem2(sys)
            assert verdict.agree, (seed, verdict.details)

    @pytest.mark.parametrize(
        "k, nondet, product",
        # the source's 3^9 states, else the starification's 3^6 * 37
        [(9, False, 19_683), (6, True, 26_973)],
        ids=["source-too-large", "starified-too-large"],
    )
    def test_product_guard_names_the_refused_product(self, k, nondet, product):
        with pytest.raises(
            ModelError, match=f"^product too large for brute force: {product} > 10000$"
        ):
            check_theorem2(ring(k, nondet))

    def test_refused_before_either_search(self, monkeypatch):
        # the source's 729 states fit under the guard, its starification's not
        returned = []

        def counted(sys):
            result = brute_force_reachable(sys)
            returned.append(len(result))
            return result

        monkeypatch.setattr(oracle, "brute_force_reachable", counted)
        with pytest.raises(ModelError, match="26973 > 10000"):
            check_theorem2(ring(6, nondet=True))
        assert returned == []
