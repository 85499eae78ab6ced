"""Machine syntax, bounded stepping, and full runs against closed forms."""

import dataclasses
from pathlib import Path

import pytest

from interax import (
    Configuration,
    DTM,
    ModelError,
    Outcome,
    initial_config,
    run_tm,
    tm_step,
    validate_dtm,
)
from interax.fixtures import even_a, first_last
from interax.formats import parse_dtm, serialize_dtm
from interax.turing import canonicalize_dtm

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ping_pong():
    """Moves the head between cells 1 and 2 forever, rewriting each symbol."""
    return parse_dtm((FIXTURES / "ping_pong.json").read_text())


def words(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + s for w in frontier for s in alphabet]
        out.extend(frontier)
    return out


class TestValidateDtm:
    def test_fixture_machines_clean(self):
        assert validate_dtm(even_a()).ok
        assert validate_dtm(first_last()).ok

    def test_delta_not_total(self):
        m = even_a()
        delta = dict(m.delta)
        del delta[("even", "b")]
        report = validate_dtm(DTM(m.tape_alphabet, m.input_alphabet, m.blank, m.states, m.initial, m.accept, m.reject, delta))
        assert any("delta not total" in f.message for f in report.findings)

    def test_blank_in_input_alphabet(self):
        m = even_a()
        report = validate_dtm(
            DTM(m.tape_alphabet, ("a", "b"), m.blank, m.states, m.initial, m.accept, m.reject, dict(m.delta))
        )
        assert any("blank in input alphabet" in f.message for f in report.findings)

    def test_delta_on_halt_state(self):
        m = even_a()
        delta = dict(m.delta)
        delta[("accept", "a")] = ("accept", "a", 1)
        report = validate_dtm(DTM(m.tape_alphabet, m.input_alphabet, m.blank, m.states, m.initial, m.accept, m.reject, delta))
        assert any(f.rule == "delta-on-halt" for f in report.findings)

    def test_bad_move_value(self):
        m = even_a()
        delta = dict(m.delta)
        delta[("even", "a")] = ("odd", "a", 0)
        report = validate_dtm(DTM(m.tape_alphabet, m.input_alphabet, m.blank, m.states, m.initial, m.accept, m.reject, delta))
        assert any(f.rule == "delta-bad-move" for f in report.findings)

    @pytest.mark.parametrize("move", [True, 1.0, -1.0], ids=repr)
    def test_move_must_be_a_plain_int(self, move):
        # True == 1 and 1.0 == 1, but no document can hold either as a move
        m = even_a()
        delta = {**m.delta, ("even", "a"): ("odd", "a", move)}
        report = validate_dtm(dataclasses.replace(m, delta=delta))
        assert [(f.rule, f.message) for f in report.findings] == [
            ("delta-bad-move", f"delta rule (even, a) has move {move}")
        ]

    @pytest.mark.parametrize(
        "change, rule, message",
        [
            ({"input_alphabet": ("a", "c")}, "input-outside-tape", "input symbol c not in tape alphabet"),
            ({"blank": "_"}, "blank-missing", "blank _ not in tape alphabet"),
            ({"delta": {("even", "c"): ("odd", "a", 1)}}, "delta-unknown-symbol", "delta rule reads unknown symbol c"),
            ({"delta": {("even", "a"): ("odd", "c", 1)}}, "delta-unknown-symbol", "delta rule writes unknown symbol c"),
            ({"delta": {("lost", "a"): ("odd", "a", 1)}}, "delta-unknown-state", "delta rule for unknown state lost"),
        ],
        ids=["input", "blank", "read", "write", "source"],
    )
    def test_unknown_names(self, change, rule, message):
        m = even_a()
        if "delta" in change:
            change = {"delta": {**m.delta, **change["delta"]}}
        report = validate_dtm(dataclasses.replace(m, **change))
        assert (rule, message) in [(f.rule, f.message) for f in report.findings]

    @pytest.mark.parametrize(
        "change, messages",
        [
            ({"delta": {("even", "a"): ("odd", "a", 1), (0, "a"): ("odd", "a", 1)}},
             ["state name 0 is not a string"]),
            ({"states": ("even", "odd", "accept", "reject", 5),
              "delta": {(5, "a"): ("even", "a", 1), (5, "b"): (5, "b", -1)}},
             ["state name 5 is not a string"]),
            ({"tape_alphabet": ("a", "b", "_", 2), "blank": None},
             ["symbol name 2 is not a string", "symbol name None is not a string"]),
        ],
        ids=["delta-row", "state", "symbols"],
    )
    def test_non_string_names_are_findings(self, change, messages):
        # they used to raise TypeError from sorting the rules
        m = even_a()
        if "delta" in change:
            change = {**change, "delta": {**m.delta, **change["delta"]}}
        machine = dataclasses.replace(m, **change)
        report = validate_dtm(machine)
        assert [(f.rule, f.message) for f in report.findings] == [
            ("non-string-name", message) for message in messages
        ]
        # the writer names the first one without its kind, as canonicalize_dtm does
        first = messages[0].partition(" ")[2]
        with pytest.raises(ModelError, match=f"^cannot serialize: {first}$"):
            serialize_dtm(machine)

    def test_canonicalize_refuses_mixed_names(self):
        # sorting them used to raise TypeError
        m = even_a()
        machine = dataclasses.replace(m, states=(*m.states, 5))
        with pytest.raises(ModelError, match="^cannot canonicalize: name 5 is not a string$"):
            canonicalize_dtm(machine)

    def test_accept_equals_reject(self):
        m = even_a()
        report = validate_dtm(
            DTM(m.tape_alphabet, m.input_alphabet, m.blank, m.states, m.initial, "accept", "accept", dict(m.delta))
        )
        assert any(f.rule == "halt-states-equal" for f in report.findings)


class TestInitialConfig:
    def test_two_symbol_word(self):
        c = initial_config(even_a(), "aa")
        assert c == Configuration("even", ("b", "a", "a", "b"), 1)

    def test_empty_word_two_cells(self):
        c = initial_config(even_a(), "")
        assert c == Configuration("even", ("b", "b"), 1)

    def test_symbol_outside_input_alphabet(self):
        with pytest.raises(ModelError, match="outside the input alphabet"):
            initial_config(even_a(), "ba")  # b is a tape symbol, not an input


class TestTmStep:
    def test_missing_rule_is_refused(self):
        m = even_a()
        broken = dataclasses.replace(
            m, delta={k: v for k, v in m.delta.items() if k != ("even", "a")}
        )
        with pytest.raises(ModelError, match=r"^delta has no rule for \('even', 'a'\)$"):
            tm_step(broken, initial_config(broken, "a"))

    def test_first_step_on_aa(self):
        m = even_a()
        after = tm_step(m, initial_config(m, "aa"))
        assert after == Configuration("odd", ("b", "a", "a", "b"), 2)

    def test_halt_state_reports_halted(self):
        m = even_a()
        assert tm_step(m, Configuration("accept", ("b", "b"), 0)) is Outcome.ACCEPT
        assert tm_step(m, Configuration("reject", ("b", "b"), 0)) is Outcome.REJECT

    def test_bound_violation_moving_right_off_tape(self):
        m = even_a()
        # reading "a" at the last cell moves right, off the tape
        for config in (
            Configuration("even", ("b", "a"), 1),
            Configuration("even", ("b", "a", "a", "a"), 3),
        ):
            assert tm_step(m, config) is Outcome.BOUND_VIOLATION

    def test_tape_length_preserved_and_single_cell_write(self):
        m = first_last()
        c = initial_config(m, "010")
        while True:
            nxt = tm_step(m, c)
            if not isinstance(nxt, Configuration):
                break
            assert len(nxt.tape) == len(c.tape)
            changed = [i for i in range(len(c.tape)) if c.tape[i] != nxt.tape[i]]
            assert changed in ([], [c.head])
            c = nxt


class TestRunTm:
    def test_even_a_hand_checked_runs(self):
        m = even_a()
        assert run_tm(m, "aa").outcome is Outcome.ACCEPT
        assert run_tm(m, "aa").steps == 3
        assert run_tm(m, "a").outcome is Outcome.REJECT
        assert run_tm(m, "a").steps == 2
        assert run_tm(m, "").outcome is Outcome.ACCEPT
        assert run_tm(m, "").steps == 1

    def test_even_a_closed_form_to_length_six(self):
        m = even_a()
        for w in words(["a"], 6):
            expected = Outcome.ACCEPT if len(w) % 2 == 0 else Outcome.REJECT
            assert run_tm(m, w).outcome is expected

    def test_first_last_closed_form_to_length_six(self):
        m = first_last()
        for w in words(["0", "1"], 6):
            expected = (
                Outcome.ACCEPT if w == "" or w[0] == w[-1] else Outcome.REJECT
            )
            assert run_tm(m, w).outcome is expected, w

    def test_loop_on_looping_machine(self):
        loop = ping_pong()
        assert validate_dtm(loop).ok
        result = run_tm(loop, "a")
        # Brent's saved configuration is the one after step 1; step 3 repeats it
        assert result.outcome is Outcome.LOOP
        assert result.steps == 3
        assert result.final == Configuration("back", ("b", "a", "b"), 2)

    def test_step_limit_on_looping_machine(self):
        result = run_tm(ping_pong(), "a", max_steps=2)
        assert result.outcome is Outcome.STEP_LIMIT
        assert result.steps == 2

    def test_max_steps_below_one_rejected(self):
        for bound in (0, -5):
            with pytest.raises(ModelError, match=f"max_steps must be at least 1, got {bound}"):
                run_tm(ping_pong(), "a", max_steps=bound)
        assert run_tm(ping_pong(), "a", max_steps=1).outcome is Outcome.STEP_LIMIT

    def test_bound_violation_outcome(self):
        runaway = DTM(
            tape_alphabet=("a", "b"),
            input_alphabet=("a",),
            blank="b",
            states=("go", "accept", "reject"),
            initial="go",
            accept="accept",
            reject="reject",
            delta={("go", "a"): ("go", "a", 1), ("go", "b"): ("go", "b", 1)},
        )
        assert run_tm(runaway, "a").outcome is Outcome.BOUND_VIOLATION

    def test_determinism_single_outcome_per_config(self):
        m = first_last()
        c = initial_config(m, "01")
        seen = {tm_step(m, c) for _ in range(5)}
        assert len(seen) == 1
