"""Property tests, run when Hypothesis is installed (the `test` extra)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from interax import (  # noqa: E402
    DTM,
    Configuration,
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    Outcome,
    PortId,
    StatePredicate,
    check_theorem1,
    explore,
    initial_config,
    is_reachable,
    run_tm,
    starify,
    tm_step,
    validate_dtm,
    validate_system,
)
from interax.cli import run_cli  # noqa: E402
from interax.errors import ModelError, ParseError  # noqa: E402
from interax.formats import (  # noqa: E402
    parse_dtm,
    parse_predicates,
    parse_system,
    serialize_dtm,
    serialize_predicates,
    serialize_system,
)
from interax.oracle import GenParams, gen_random_system  # noqa: E402
from interax.turing import canonicalize_dtm  # noqa: E402

from canonical import canonicalize_system  # noqa: E402
from test_semantics import assert_search_is_reference  # noqa: E402

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


random_systems = st.builds(GenParams, st.integers(0, 2**32 - 1), *[bound] * 5).map(
    gen_random_system
)


@settings(max_examples=150, deadline=None, database=None)
@given(random_systems, st.data(), st.integers(1, 8))
def test_search_is_the_reference_bfs(system, data, max_states):
    # an exact-state target over a random subset of the components (none
    # holds everywhere), under a bound that cuts most searches short
    picked = data.draw(st.lists(st.sampled_from(system.model.components), unique=True))
    target = StatePredicate.of(
        {c: data.draw(st.sampled_from(system.behaviors[c].states)) for c in picked}
    )
    assert_search_is_reference(system, [target], max_states)


@st.composite
def renamed_systems(draw, names):
    """A random system and a copy with its components, ports, states and
    interactions renamed one-to-one to `names` draws and its components and
    interactions reordered.  Returns (system, copy, component map, state
    maps)."""
    system = draw(random_systems)
    model = system.model

    def rename(old):
        new = draw(st.lists(names, min_size=len(old), max_size=len(old), unique=True))
        return dict(zip(old, new))

    comp = rename(model.components)
    port = {c: rename(model.ports[c]) for c in model.components}
    state = {c: rename(system.behaviors[c].states) for c in model.components}
    name = rename([a.name for a in model.interactions])
    order = draw(st.permutations(model.components))
    behaviors = {
        comp[c]: LocalBehavior(
            tuple(state[c][s] for s in b.states),
            frozenset(
                (state[c][src], port[c][p], state[c][dst])
                for src, p, dst in b.transitions
            ),
            state[c][b.initial],
        )
        for c, b in system.behaviors.items()
    }
    interactions = tuple(
        Interaction(
            name[a.name],
            tuple(PortId(comp[p.component], port[p.component][p.port]) for p in a.ports),
        )
        for a in draw(st.permutations(model.interactions))
    )
    renamed = InteractionSystem(
        InteractionModel(
            tuple(comp[c] for c in order),
            {comp[c]: tuple(port[c][p] for p in model.ports[c]) for c in order},
            interactions,
        ),
        behaviors,
    )
    return system, renamed, comp, state


# a state that predicate text cannot name, as "*" reads as any state there
STAR_STATE = InteractionSystem(
    InteractionModel(("c",), {"c": ("p",)}, (Interaction("a", (PortId("c", "p"),)),)),
    {"c": LocalBehavior(("*", "q"), frozenset({("q", "p", "q")}), "q")},
)


# arbitrary names, "" and dotted ones included: about 40% of the draws are
# valid, the rest name a component or port that no document can write, or
# a state that no target can name
@example((None, STAR_STATE, None, None))
@settings(max_examples=150, deadline=None, database=None)
@given(renamed_systems(st.text(max_size=3)))
def test_every_valid_system_round_trips(case):
    _, system, _, _ = case
    rules = {f.rule for f in validate_system(system).findings}
    if rules:
        assert rules <= {"empty-name", "dotted-component-name", "wildcard-state"}
        return
    star = starify(system)
    assert validate_system(star).ok
    for s in (system, star):
        assert parse_system(serialize_system(s)) == canonicalize_system(s)


# names of any JSON scalar type: a system whose names are not all strings
# gets a `non-string-name` finding and is refused by the writer, and a clean
# one round-trips
@settings(max_examples=150, deadline=None, database=None)
@given(
    renamed_systems(
        st.one_of(
            st.text("ab.", max_size=2),
            st.integers(-2, 2),
            st.booleans(),
            st.none(),
            st.floats(-1, 1),
        )
    )
)
def test_names_of_any_type_round_trip_or_are_findings(case):
    _, system, _, _ = case
    model = system.model
    names = [
        *model.components,
        *(p for c in model.components for p in model.ports[c]),
        *(a.name for a in model.interactions),
        *(s for b in system.behaviors.values() for s in b.states),
    ]
    rules = {f.rule for f in validate_system(system).findings}
    odd = any(not isinstance(x, str) for x in names)
    assert ("non-string-name" in rules) == odd
    if odd:
        with pytest.raises(ModelError, match="^cannot serialize: name "):
            serialize_system(system)
    if not rules:
        assert parse_system(serialize_system(system)) == canonicalize_system(system)


# "" and dotted names: the writer refuses a port reference that would not
# read back as the same port, and any other system keeps every finding
# through its document, valid or not
@settings(max_examples=300, deadline=None, database=None)
@given(renamed_systems(st.text("ab.", max_size=2)))
def test_a_written_system_keeps_every_finding(case):
    _, system, _, _ = case
    try:
        text = serialize_system(system)
    except ModelError:
        return
    again = parse_system(text, validate=False)
    assert validate_system(again) == validate_system(canonicalize_system(system))


fresh_names = st.text("abxy_0", min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, database=None)
@given(renamed_systems(fresh_names), st.data())
def test_answers_survive_renaming_and_reordering(case, data):
    system, renamed, comp, state = case
    assert validate_system(renamed).ok
    order = renamed.model.components
    position = {c: k for k, c in enumerate(system.model.components)}
    back = {new: old for old, new in comp.items()}

    def moved(q):
        return tuple(state[back[c]][q[position[back[c]]]] for c in order)

    base, other = explore(system), explore(renamed)
    assert {moved(q) for q in base.states} == other.states
    assert (other.transitions, other.complete) == (base.transitions, base.complete)

    components = system.model.components
    picked = data.draw(st.lists(st.sampled_from(components), min_size=1, unique=True))
    target = {c: data.draw(st.sampled_from(system.behaviors[c].states)) for c in picked}
    found = is_reachable(system, [StatePredicate.of(target)])
    again = is_reachable(
        renamed, [StatePredicate.of({comp[c]: state[c][s] for c, s in target.items()})]
    )
    assert again.reachable == found.reachable
    assert len(again.trace or []) == len(found.trace or [])


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


@settings(max_examples=60, deadline=None, database=None)
@given(machines_and_words())
def test_machine_documents_round_trip(case):
    machine, _ = case
    assert parse_dtm(serialize_dtm(machine)) == canonicalize_dtm(machine)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=4)))
def test_predicate_documents_round_trip(predicates):
    assert parse_predicates(serialize_predicates(predicates)) == predicates


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.json"))]
# no predicate document is kept under fixtures/; this one names real states
FIXTURE_TEXTS.append(
    serialize_predicates([{"S": "busy", "c1": "*"}, {"s1": "waiting"}])
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _slots(value, out):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return out
    for key, child in items:
        out.append((value, key))
        _slots(child, out)
    return out


@st.composite
def mutated_fixtures(draw):
    """A fixture document with one slot dropped, retyped or duplicated."""
    doc = json.loads(draw(st.sampled_from(FIXTURE_TEXTS)))
    container, key = draw(st.sampled_from(_slots(doc, [])))
    op = draw(st.sampled_from(("drop", "retype", "duplicate")))
    if op == "drop":
        del container[key]
    elif op == "retype":
        old = container[key]
        container[key] = draw(json_values.filter(lambda v: type(v) is not type(old)))
    elif isinstance(container, list):
        container.insert(key, container[key])
    else:
        # a key repeated in one object, which json.dumps cannot write
        text = json.dumps(doc)
        entry = json.dumps({key: container[key]})[1:-1]
        return text.replace(entry, f"{entry}, {entry}", 1)
    return json.dumps(doc)


documents = st.text(max_size=40) | json_values.map(json.dumps) | mutated_fixtures()


# an integer literal longer than `int` converts from text by default
TOO_LONG_INTEGER = '{"version": 1' + "0" * 5000 + "}"


@example(TOO_LONG_INTEGER)
@settings(max_examples=80, deadline=None, database=None)
@given(documents)
def test_parsers_return_or_raise_input_errors(text):
    for parse in (parse_system, parse_dtm, parse_predicates):
        try:
            parse(text)
        except (ParseError, ModelError):
            pass


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([str(a) for a in argv])
    return code, err.getvalue()


@example(TOO_LONG_INTEGER)
@settings(max_examples=20, deadline=None, database=None)
@given(documents)
def test_cli_answers_or_refuses_bad_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        system = FIXTURES / "pipeline_n3.json"
        for argv in (
            ("validate", path),
            ("classify", path),
            ("reach", path, "--target", "s1=waiting", "--max-states", 1000),
            ("reach", system, "--target", path),
            ("tm-run", path, "--input", ""),
            ("check-thm1", path, "--input", ""),
            ("check-thm2", path),
        ):
            code, err = _cli(*argv)
            assert code in (0, 2), (argv, err)
            assert "internal error" not in err
