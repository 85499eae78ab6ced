"""Deterministic Turing machines with a linear-bounded runtime guard.

Machines run on a tape of exactly n+2 cells (0 through n+1 for an input of
length n).  Whether a machine really is linear bounded is semantic and
undecidable in general, so the simulator enforces the bound at runtime: a
step that would move the head off either end yields the BOUND_VIOLATION
outcome instead of growing the tape.

A run is one stream of moves on one mutable tape, `_moves`, which keeps no
move and ends with the `RunResult`; `run_tm` drains it, `tm_step` is its
first move and the Theorem 1 lockstep reads a drain of its own.  Before a
move the stream checks, in order: a halt state (ACCEPT or REJECT), a
missing rule (`ModelError`), the tape's ends (BOUND_VIOLATION) and the cap
(STEP_LIMIT).  After one, Brent's cycle detection (*BIT* 1980) compares the
configuration with one saved configuration, replaced when the steps since
saving reach a doubling power of two: LOOP comes at the first repeat of the
saved one, after the run has closed its cycle, so its `steps` moves visit
every distinct configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Mapping

from .errors import ModelError
from .validation import ValidationReport, bound, non_strings, refuse_non_strings, repeated


@dataclass(frozen=True)
class DTM:
    """A deterministic Turing machine.

    `delta` maps (state, read symbol) to (next state, written symbol, move)
    with move in {-1, +1}; it must be total on non-halt states and defined
    nowhere else.
    """

    tape_alphabet: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    blank: str
    states: tuple[str, ...]
    initial: str
    accept: str
    reject: str
    delta: Mapping[tuple[str, str], tuple[str, str, int]]


@dataclass(frozen=True)
class Configuration:
    """Machine state, the n+2 tape symbols, and the head cell index."""

    state: str
    tape: tuple[str, ...]
    head: int


class Outcome(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    BOUND_VIOLATION = "bound_violation"
    STEP_LIMIT = "step_limit"
    LOOP = "loop"


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    steps: int
    final: Configuration


def _names(machine: DTM) -> tuple[list, list]:
    """(state names, symbol names): every name the machine holds, by kind."""
    m = machine
    states = [*m.states, m.initial, m.accept, m.reject]
    symbols = [*m.tape_alphabet, *m.input_alphabet, m.blank]
    for (p, g), (p2, w, _) in m.delta.items():
        states += (p, p2)
        symbols += (g, w)
    return states, symbols


def validate_dtm(machine: DTM) -> ValidationReport:
    """Check alphabets, distinguished states, and delta totality/domain.  A
    state or symbol name that is not a string is reported alone: every other
    rule sorts or compares names, and no document can hold it."""
    report = ValidationReport()
    m = machine
    for kind, group in zip(("state", "symbol"), _names(m)):
        for x in non_strings(group):
            report.add("non-string-name", f"{kind} name {x!r} is not a string")
    if not report.ok:
        return report

    for label, symbols in (("tape", m.tape_alphabet), ("input", m.input_alphabet)):
        for s in repeated(symbols):
            report.add("duplicate-symbol", f"{label} alphabet lists {s} twice")
    for s in repeated(m.states):
        report.add("duplicate-state", f"state {s} listed twice")

    tape = set(m.tape_alphabet)
    for s in m.input_alphabet:
        if s not in tape:
            report.add("input-outside-tape", f"input symbol {s} not in tape alphabet")
    if m.blank not in tape:
        report.add("blank-missing", f"blank {m.blank} not in tape alphabet")
    if m.blank in m.input_alphabet:
        report.add("blank-in-input", f"blank in input alphabet: {m.blank}")

    states = set(m.states)
    for role in ("initial", "accept", "reject"):
        if (name := getattr(m, role)) not in states:
            report.add("missing-state", f"{role} state {name} not declared")
    if m.accept == m.reject:
        report.add("halt-states-equal", "accept and reject states coincide")

    halt = {m.accept, m.reject}
    for p in m.states:
        if p in halt:
            continue
        for g in m.tape_alphabet:
            if (p, g) not in m.delta:
                report.add("delta-not-total", f"delta not total: no rule for ({p}, {g})")
    for (p, g), (p2, w, move) in sorted(m.delta.items()):
        if p in halt:
            report.add("delta-on-halt", f"delta defined on halt state ({p}, {g})")
        if p not in states:
            report.add("delta-unknown-state", f"delta rule for unknown state {p}")
        if g not in tape:
            report.add("delta-unknown-symbol", f"delta rule reads unknown symbol {g}")
        if p2 not in states:
            report.add("delta-unknown-state", f"delta rule targets unknown state {p2}")
        if w not in tape:
            report.add("delta-unknown-symbol", f"delta rule writes unknown symbol {w}")
        # a bool or a float can equal 1 but cannot be written as a move
        if type(move) is not int or move not in (-1, 1):
            report.add("delta-bad-move", f"delta rule ({p}, {g}) has move {move}")

    return report


def initial_config(machine: DTM, word: str) -> Configuration:
    """Blank, the input on cells 1..n, blank; head on cell 1 (which holds the
    blank when the input is empty)."""
    symbols = list(word)
    allowed = set(machine.input_alphabet)
    for s in symbols:
        if s not in allowed:
            raise ModelError(f"input symbol {s!r} outside the input alphabet")
    tape = (machine.blank, *symbols, machine.blank)
    return Configuration(machine.initial, tape, 1)


def _moves(machine: DTM, config: Configuration, max_steps: int | None = None):
    """The run from `config`: after each move, the cell the head left, the
    cell it entered, the new state and the tape list, which the next move
    changes in place; last, the `RunResult`, whose final configuration is
    the one `Configuration` the stream builds."""
    accept, reject, delta = machine.accept, machine.reject, machine.delta
    state, head, tape = config.state, config.head, list(config.tape)
    last = len(tape) - 1
    saved_state, saved_head, saved_tape = state, head, tape[:]
    saved_at, power, steps = 0, 1, 0
    while state != accept and state != reject:
        rule = delta.get(key := (state, tape[head]))
        if rule is None:
            raise ModelError(f"delta has no rule for {key}")
        after, written, move = rule
        entered = head + move
        if entered < 0 or entered > last:
            outcome = Outcome.BOUND_VIOLATION
            break
        if steps == max_steps:
            outcome = Outcome.STEP_LIMIT
            break
        steps += 1
        tape[head] = written
        yield head, entered, after, tape
        state, head = after, entered
        if head == saved_head and state == saved_state and tape == saved_tape:
            outcome = Outcome.LOOP
            break
        if steps - saved_at == power:
            saved_state, saved_head, saved_tape = state, head, tape[:]
            saved_at, power = steps, 2 * power
    else:
        outcome = Outcome.ACCEPT if state == accept else Outcome.REJECT
    yield RunResult(outcome, steps, Configuration(state, tuple(tape), head))


def tm_step(machine: DTM, config: Configuration) -> Configuration | Outcome:
    """One move, the first of `_moves`: the next Configuration, or how the
    run ends here (ACCEPT, REJECT or BOUND_VIOLATION)."""
    first = next(_moves(machine, config))
    if isinstance(first, RunResult):
        return first.outcome
    _, head, state, tape = first
    return Configuration(state, tuple(tape), head)


def run_tm(machine: DTM, word: str, max_steps: int | None = None) -> RunResult:
    """The last item of `_moves` from the initial configuration.  No cap
    when `max_steps` is None; an explicit cap, at least 1, gives STEP_LIMIT."""
    if max_steps is not None:
        bound(max_steps, "max_steps")
    return deque(_moves(machine, initial_config(machine, word), max_steps), maxlen=1)[0]


def canonicalize_dtm(machine: DTM) -> DTM:
    """Sorted alphabets and state list; the rule table is order-free.
    Nothing is dropped, so an invalid machine keeps every finding; names
    that cannot be sorted together raise `ModelError` naming the first one
    that is not a string."""
    try:
        return replace(
            machine,
            tape_alphabet=tuple(sorted(machine.tape_alphabet)),
            input_alphabet=tuple(sorted(machine.input_alphabet)),
            states=tuple(sorted(machine.states)),
            delta=dict(machine.delta),
        )
    except TypeError:
        refuse_non_strings(chain(*_names(machine)), "canonicalize")
        raise
