"""Machine-to-line compilation: sizes, bijection, lockstep, halt cascade."""

import itertools
from dataclasses import replace
from pathlib import Path

import pytest

from interax import (
    ModelError,
    Outcome,
    StatePredicate,
    accept_predicate,
    brute_force_reachable,
    check_theorem1,
    classify,
    compile_lsa,
    config_to_gstate,
    explore,
    extend_halt_propagation,
    initial_config,
    is_reachable,
    run_tm,
    starify,
    successors,
    tm_step,
    validate_dtm,
    validate_system,
)
from interax.fixtures import even_a, first_last
from interax.formats import parse_dtm, serialize_system
from interax.model import Interaction, InteractionModel, InteractionSystem, LocalBehavior, PortId
from interax.reduce_linear import (
    arrive_port,
    cell_names,
    cell_state,
    cell_states,
    head_marker,
    leave_port,
)
from interax.turing import Configuration
from test_semantics import palindrome

PING_PONG = Path(__file__).resolve().parent.parent / "fixtures" / "ping_pong.json"
MACHINES = pytest.mark.parametrize(
    "machine",
    [even_a, first_last, lambda: parse_dtm(PING_PONG.read_text()), palindrome],
    ids=["even_a", "first_last", "ping_pong", "palindrome"],
)


def words(m, longest):
    """Every word over `m`'s input alphabet up to `longest` letters, the
    empty word first."""
    for k in range(longest + 1):
        for letters in itertools.product(m.input_alphabet, repeat=k):
            yield "".join(letters)


def _reference_compile_lsa(machine, word):
    """`compile_lsa` cell by cell: each rule at each cell it can leave,
    appending the leave and arrive ports and transitions to the two cells it
    joins, with each interaction's ports sorted."""
    initial = config_to_gstate(machine, word, initial_config(machine, word))
    marker = head_marker(machine)
    all_states = tuple(cell_states(machine).values())
    cells = cell_names(len(word))
    ports = {cell: [] for cell in cells}
    transitions = {cell: set() for cell in cells}
    interactions = []
    for (p, g), (p2, w, move) in machine.delta.items():
        leave, arrive = leave_port(p, g), arrive_port(p, g)
        left = (cell_state(p, g), leave, cell_state(marker, w))
        arrived = {
            (cell_state(marker, held), arrive, cell_state(p2, held))
            for held in machine.tape_alphabet
        }
        for i, src in enumerate(cells):
            if not 0 <= i + move < len(cells):
                continue
            dst = cells[i + move]
            ports[src].append(leave)
            transitions[src].add(left)
            ports[dst].append(arrive)
            transitions[dst] |= arrived
            interactions.append(
                Interaction(
                    f"mv:{p}:{g}:{src}:{dst}",
                    tuple(sorted((PortId(src, leave), PortId(dst, arrive)))),
                )
            )
    behaviors = {
        cell: LocalBehavior(all_states, frozenset(transitions[cell]), initial[i])
        for i, cell in enumerate(cells)
    }
    model = InteractionModel(
        cells, {cell: tuple(ports[cell]) for cell in cells}, tuple(interactions)
    )
    return InteractionSystem(model, behaviors)


class TestCompile:
    def test_even_a_on_aa_shape(self):
        sys_m = compile_lsa(even_a(), "aa")
        assert validate_system(sys_m).ok
        assert sys_m.model.components == ("0", "1", "2", "3")
        # |Q_i| = (|P| + 1) * |tape alphabet| for every cell
        for c in sys_m.model.components:
            assert len(set(sys_m.behaviors[c].states)) == (4 + 1) * 2
        # interactions: one per rule and feasible cell pair; 4 rules x 3 pairs
        assert len(sys_m.model.interactions) == 12

    def test_port_count_bounds(self):
        m = even_a()
        for word in ("", "a", "aa", "aaa"):
            sys_m = compile_lsa(m, word)
            bound = 2 * len(m.states) * len(m.tape_alphabet)
            for c in sys_m.model.components:
                assert len(sys_m.model.ports[c]) <= bound

    def test_interaction_count_per_neighbor_pair(self):
        # each adjacent cell pair carries at most one interaction per rule
        m = even_a()
        rules = len(m.delta)
        for word in ("", "a", "aa", "aaaa"):
            sys_m = compile_lsa(m, word)
            pairs = len(sys_m.model.components) - 1
            assert len(sys_m.model.interactions) <= pairs * rules

    def test_classifies_linear(self):
        assert classify(compile_lsa(even_a(), "a").model).linear
        assert classify(compile_lsa(first_last(), "0110").model).linear

    def test_boundary_cells_omit_offtape_ports(self):
        sys_m = compile_lsa(even_a(), "aa")
        # cell 0: leaving needs a right move, arriving needs a left move
        assert set(sys_m.model.ports["0"]) == {
            "L:even:a",
            "L:odd:a",
            "A:even:b",
            "A:odd:b",
        }
        assert set(sys_m.model.ports["3"]) == {
            "L:even:b",
            "L:odd:b",
            "A:even:a",
            "A:odd:a",
        }

    def test_cell_ports_are_their_sides_of_the_interactions(self):
        # each port of a cell joins exactly one interaction, and every
        # interaction is a head move
        for m in (even_a(), first_last()):
            for k in range(6):
                for w in itertools.product(m.input_alphabet, repeat=k):
                    sys_m = compile_lsa(m, "".join(w))
                    sides = {c: [] for c in sys_m.model.components}
                    for a in sys_m.model.interactions:
                        assert a.name.startswith("mv:")
                        for pid in a.ports:
                            sides[pid.component].append(pid.port)
                    for c, ports in sides.items():
                        assert sorted(ports) == sorted(sys_m.model.ports[c])

    def test_inner_cells_share_their_family_and_transitions(self):
        sys_m = compile_lsa(palindrome(), "abab")
        inner = sys_m.model.components[1:-1]
        assert len(inner) == 4
        assert len({id(sys_m.model.ports[c]) for c in inner}) == 1
        assert len({id(sys_m.behaviors[c].transitions) for c in inner}) == 1
        # each keeps its own initial state
        assert len({sys_m.behaviors[c].initial for c in inner}) == 3

    def test_initial_states_from_word(self):
        sys_m = compile_lsa(even_a(), "aa")
        assert sys_m.initial_state() == ("s,b", "even,a", "s,a", "s,b")

    def test_empty_word_initial_head_on_blank(self):
        sys_m = compile_lsa(even_a(), "")
        assert sys_m.model.components == ("0", "1")
        assert sys_m.initial_state() == ("s,b", "even,b")

    def test_bad_input_rejected(self):
        with pytest.raises(ModelError, match="outside the input alphabet"):
            compile_lsa(even_a(), "ab")


class TestAcceptPredicate:
    def test_count_is_cells_times_symbols(self):
        preds = accept_predicate(even_a(), "a")
        assert len(preds) == 3 * 2

    def test_each_predicate_single_exact_constraint(self):
        for pred in accept_predicate(first_last(), "01"):
            assert len(pred.constraints) == 1

    def test_never_empty(self):
        assert accept_predicate(even_a(), "")


class TestBijection:
    def test_initial_config_maps_to_initial_state(self):
        m = even_a()
        for word in ("", "a", "aa", "aaa"):
            sys_m = compile_lsa(m, word)
            mapped = config_to_gstate(m, word, initial_config(m, word))
            assert mapped == sys_m.initial_state()

    def test_one_step_image(self):
        m = even_a()
        c1 = tm_step(m, initial_config(m, "aa"))
        assert config_to_gstate(m, "aa", c1) == ("s,b", "s,a", "odd,a", "s,b")

    def test_injective_on_random_configurations(self):
        import random

        rng = random.Random(7)
        m = first_last()
        word = "010"
        cells = len(word) + 2
        non_halt = [p for p in m.states if p not in (m.accept, m.reject)]
        # 100 draws, one of them a repeat: distinct configurations must
        # give as many distinct global states
        configs = {
            Configuration(
                rng.choice(non_halt),
                tuple(rng.choice(m.tape_alphabet) for _ in range(cells)),
                rng.randrange(cells),
            )
            for _ in range(100)
        }
        assert len({config_to_gstate(m, word, c) for c in configs}) == len(configs)

    def test_tape_length_mismatch_rejected(self):
        m = even_a()
        with pytest.raises(ModelError, match="tape length mismatch"):
            config_to_gstate(m, "aa", initial_config(m, "a"))


class TestLockstep:
    def test_unique_interaction_matches_machine_step(self):
        m = first_last()
        word = "0110"
        sys_m = compile_lsa(m, word)
        config = initial_config(m, word)
        while True:
            nxt = tm_step(m, config)
            if not isinstance(nxt, Configuration):
                break
            here = config_to_gstate(m, word, config)
            succ = successors(sys_m, here)
            assert len(succ) == 1
            assert succ[0][1] == config_to_gstate(m, word, nxt)
            config = nxt

    def test_equivalence_both_machines_short_words(self):
        for m, alphabet in ((even_a(), ["a"]), (first_last(), ["0", "1"])):
            frontier = [""]
            for _ in range(4):
                frontier = [w + s for w in frontier for s in alphabet]
            for word in [""] + frontier:
                accepted = run_tm(m, word).outcome is Outcome.ACCEPT
                reach = is_reachable(compile_lsa(m, word), accept_predicate(m, word))
                assert accepted == reach.reachable, word


class TestDeltaOrder:
    """Compilation follows delta's insertion order, so reversing it must
    change neither the serialized system nor the Theorem 1 verdict."""

    @MACHINES
    def test_reversed_delta_changes_nothing(self, machine):
        m = machine()
        flipped = replace(m, delta=dict(reversed(list(m.delta.items()))))
        for word in words(m, 4):
            assert serialize_system(compile_lsa(flipped, word)) == (
                serialize_system(compile_lsa(m, word))
            ), word
            assert check_theorem1(flipped, word) == check_theorem1(m, word), word

    @MACHINES
    def test_equals_the_cell_by_cell_construction(self, machine):
        # `==` sees what serialization canonicalizes away: the order of the
        # interactions, of each port family and of each interaction's ports
        m = machine()
        flipped = replace(m, delta=dict(reversed(list(m.delta.items()))))
        for word in words(m, 4):
            for dtm in (m, flipped):
                assert compile_lsa(dtm, word) == _reference_compile_lsa(dtm, word), word


class TestStarifiedLine:
    """Both reductions in one chain: the machine's own run is the truth
    for a starified line system, which has far more interactions than the
    random draws `starify` is otherwise checked on."""

    @MACHINES
    def test_starify_keeps_acceptance_reachable_set_and_shape(self, machine):
        m = machine()
        for word in words(m, 3):
            line = compile_lsa(m, word)
            star = starify(line)
            hub = star.model.components[-1]
            # the hub must be idle: a half-done fire walk has moved only
            # some participants, so it stands for no state of the line
            targets = [
                StatePredicate.of({**p.as_dict(), hub: "idle"})
                for p in accept_predicate(m, word)
            ]
            accepts = run_tm(m, word).outcome is Outcome.ACCEPT
            assert is_reachable(star, targets).reachable == accepts, word
            projected = {q[:-1] for q in explore(star).states if q[-1] == "idle"}
            assert projected == explore(line).states, word
            assert classify(star.model).star_like, word


class TestHaltExtension:
    def _done_predicate(self, ext, done):
        return StatePredicate.of(dict(zip(ext.model.components, done)))

    def test_accepting_word_reaches_distinguished_state(self):
        m = even_a()
        ext, done = extend_halt_propagation(m, "aa")
        assert validate_system(ext).ok
        result = is_reachable(ext, self._done_predicate(ext, done))
        assert result.reachable

    def test_rejecting_word_cannot_reach_it(self):
        m = even_a()
        ext, done = extend_halt_propagation(m, "a")
        result = is_reachable(ext, self._done_predicate(ext, done))
        assert not result.reachable
        assert result.complete

    def test_still_classifies_linear(self):
        m = even_a()
        for word in ("aa", "aaa"):
            ext, _ = extend_halt_propagation(m, word)
            assert classify(ext.model).linear

    def test_oracle_crosscheck_small_inputs(self):
        # full-product oracle fits for words up to length one
        m = even_a()
        for word, expect in (("", True), ("a", False)):
            ext, done = extend_halt_propagation(m, word)
            assert (done in brute_force_reachable(ext)) is expect

    def test_agrees_with_accept_predicate_reachability(self):
        for m, words in (
            (even_a(), ["", "a", "aa", "aaa"]),
            (first_last(), ["", "0", "01", "00", "010"]),
        ):
            for word in words:
                sys_m = compile_lsa(m, word)
                plain = is_reachable(sys_m, accept_predicate(m, word)).reachable
                ext, done = extend_halt_propagation(m, word)
                extended = is_reachable(ext, self._done_predicate(ext, done)).reachable
                assert plain == extended, (word, plain, extended)

    def test_distinguished_state_is_all_done(self):
        m = even_a()
        ext, done = extend_halt_propagation(m, "a")
        assert set(done) == {"halt:done"}
        assert len(done) == len(ext.model.components)

    def test_no_cascade_before_accept(self):
        # reachable states of the extension with a rejecting word never leave
        # the machine-mirroring fragment
        m = even_a()
        ext, _ = extend_halt_propagation(m, "a")
        for q in explore(ext).states:
            assert all(not s.startswith("halt:") for s in q)


class TestMarkerNamespacing:
    def test_colliding_rendered_names_are_refused(self):
        # ("p", "x,y") and ("p,x", "y") both render as "p,x,y"
        machine = type(even_a())(
            tape_alphabet=("y", "x,y"),
            input_alphabet=("x,y",),
            blank="y",
            states=("p", "p,x", "accept", "reject"),
            initial="p",
            accept="accept",
            reject="reject",
            delta={
                (p, g): ("accept", g, 1) for p in ("p", "p,x") for g in ("y", "x,y")
            },
        )
        assert validate_dtm(machine).ok
        with pytest.raises(ModelError, match="^ambiguous state naming: rendered cell states collide$"):
            compile_lsa(machine, "")

    def test_marker_avoids_machine_state_names(self):
        m = even_a()
        clash = type(m)(
            tape_alphabet=m.tape_alphabet,
            input_alphabet=m.input_alphabet,
            blank=m.blank,
            states=("s", "s_", "accept", "reject"),
            initial="s",
            accept="accept",
            reject="reject",
            delta={
                ("s", "a"): ("s_", "a", 1),
                ("s_", "a"): ("s", "a", 1),
                ("s", "b"): ("accept", "b", -1),
                ("s_", "b"): ("reject", "b", -1),
            },
        )
        sys_m = compile_lsa(clash, "aa")
        assert validate_system(sys_m).ok
        # off-cell marker got padded past both machine states
        assert "s__,b" in sys_m.behaviors["0"].states
        run = run_tm(clash, "aa")
        reach = is_reachable(sys_m, accept_predicate(clash, "aa"))
        assert (run.outcome is Outcome.ACCEPT) == reach.reachable
