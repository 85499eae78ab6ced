"""Property tests, run when Hypothesis is installed (the `test` extra)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from interax import (  # noqa: E402
    DTM,
    Configuration,
    Outcome,
    canonicalize_system,
    check_theorem1,
    initial_config,
    run_tm,
    starify,
    tm_step,
    validate_dtm,
    validate_system,
)
from interax.formats import parse_system, serialize_system  # noqa: E402
from interax.oracle import GenParams, gen_random_system  # noqa: E402

bound = st.integers(1, 4)


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_components=bound,
    max_states=bound,
    max_ports=bound,
    max_interactions=bound,
    max_interaction_size=bound,
)
def test_one_port_list_is_one_port_family(seed, **bounds):
    # a document states each component's ports once, and so does the model
    system = gen_random_system(GenParams(seed=seed, **bounds))
    assert parse_system(serialize_system(system)) == canonicalize_system(system)
    assert validate_system(system).ok
    assert validate_system(starify(system)).ok


@st.composite
def machines_and_words(draw):
    """A valid machine with 1-3 non-halt states and a total delta, so some
    halt, some loop and some leave the tape, with a word of length 0-3."""
    tape = ("a", "b", "c")[: draw(st.integers(2, 3))]
    live = tuple(f"p{k}" for k in range(draw(st.integers(1, 3))))
    states = (*live, "accept", "reject")
    # live targets are drawn more often than halt states, so more runs loop
    target = st.sampled_from(live) | st.sampled_from(states)
    rule = st.tuples(target, st.sampled_from(tape), st.sampled_from((-1, 1)))
    delta = {(p, g): draw(rule) for p in live for g in tape}
    inputs = tuple(g for g in tape if g != "b")
    machine = DTM(tape, inputs, "b", states, "p0", "accept", "reject", delta)
    word = "".join(draw(st.lists(st.sampled_from(inputs), max_size=3)))
    return machine, word


def bouncer():
    """Walks right over the input, then bounces between the right blank and
    the cell to its left: a loop of length 2 entered after len(word) steps."""
    delta = {
        ("p0", "a"): ("p0", "a", 1),
        ("p0", "b"): ("p1", "b", -1),
        ("p1", "a"): ("p0", "a", 1),
        ("p1", "b"): ("p0", "b", 1),
    }
    states = ("p0", "p1", "accept", "reject")
    return DTM(("a", "b"), ("a",), "b", states, "p0", "accept", "reject", delta)


def distinct_configurations(machine, word):
    """Walk the run keeping every configuration seen: (repeats, count)."""
    config = initial_config(machine, word)
    seen = {config}
    while isinstance(config := tm_step(machine, config), Configuration):
        if config in seen:
            return True, len(seen)
        seen.add(config)
    return False, len(seen)


# random machines rarely loop, so two looping runs are always included
@example((bouncer(), ""))
@example((bouncer(), "aaa"))
@settings(max_examples=60, deadline=None, database=None)
@given(machines_and_words())
def test_every_run_ends_and_theorem1_agrees(case):
    machine, word = case
    assert validate_dtm(machine).ok
    run = run_tm(machine, word)
    repeats, distinct = distinct_configurations(machine, word)
    assert (run.outcome is Outcome.LOOP) == repeats
    if repeats:
        # the lockstep replay of run.steps moves reaches every configuration
        assert run.steps >= distinct
    else:
        assert run.steps == distinct - 1
    assert check_theorem1(machine, word).agree
