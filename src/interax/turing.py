"""Deterministic Turing machines with a linear-bounded runtime guard.

Machines run on a tape of exactly n+2 cells (0 through n+1 for an input of
length n).  Whether a machine really is linear bounded is semantic and
undecidable in general, so the simulator enforces the bound at runtime: a
step that would move the head off either end yields the BOUND_VIOLATION
outcome instead of growing the tape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from .errors import ModelError
from .validation import ValidationReport, repeated


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


def validate_dtm(machine: DTM) -> ValidationReport:
    """Check alphabets, distinguished states, and delta totality/domain."""
    report = ValidationReport()
    m = machine

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
    if m.blank in set(m.input_alphabet):
        report.add("blank-in-input", f"blank in input alphabet: {m.blank}")

    states = set(m.states)
    for role, name in (
        ("initial", m.initial),
        ("accept", m.accept),
        ("reject", m.reject),
    ):
        if name not in states:
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
        if move not in (-1, 1):
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


def tm_step(machine: DTM, config: Configuration) -> Configuration | Outcome:
    """One move: the next Configuration, or how the run ends here (ACCEPT or
    REJECT in a halt state, BOUND_VIOLATION when the head would leave the
    tape)."""
    if config.state == machine.accept:
        return Outcome.ACCEPT
    if config.state == machine.reject:
        return Outcome.REJECT
    key = (config.state, config.tape[config.head])
    rule = machine.delta.get(key)
    if rule is None:
        raise ModelError(f"delta has no rule for {key}")
    state, written, move = rule
    head = config.head + move
    if head < 0 or head >= len(config.tape):
        return Outcome.BOUND_VIOLATION
    tape = list(config.tape)
    tape[config.head] = written
    return Configuration(state, tuple(tape), head)


def run_tm(machine: DTM, word: str, max_steps: int | None = None) -> RunResult:
    """Iterate tm_step from the initial configuration and classify the end.

    A run on n+2 cells halts, leaves the tape or repeats a configuration.
    Repeats are found by Brent's cycle detection: one saved configuration,
    replaced when the steps since saving reach a doubling power of two.  LOOP
    comes at the first repeat of the saved configuration, after the run has
    closed its cycle, so its `steps` moves visit every distinct configuration.
    `max_steps=None` means no cap; an explicit cap, at least 1, yields
    STEP_LIMIT.
    """
    if max_steps is not None and max_steps < 1:
        raise ModelError(f"max_steps must be at least 1, got {max_steps}")
    config = initial_config(machine, word)
    saved, saved_at, power = config, 0, 1
    steps = 0
    while True:
        result = tm_step(machine, config)
        if isinstance(result, Outcome):
            return RunResult(result, steps, config)
        if max_steps is not None and steps >= max_steps:
            return RunResult(Outcome.STEP_LIMIT, steps, config)
        steps += 1
        config = result
        if config == saved:
            return RunResult(Outcome.LOOP, steps, config)
        if steps - saved_at == power:
            saved, saved_at, power = config, steps, 2 * power


def canonicalize_dtm(machine: DTM) -> DTM:
    """Sorted alphabets and state list; the rule table is order-free.
    Nothing is dropped, so an invalid machine keeps every finding."""
    return replace(
        machine,
        tape_alphabet=tuple(sorted(machine.tape_alphabet)),
        input_alphabet=tuple(sorted(machine.input_alphabet)),
        states=tuple(sorted(machine.states)),
        delta=dict(machine.delta),
    )
