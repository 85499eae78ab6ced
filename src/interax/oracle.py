"""Independent truth sources: brute-force reachability over the global
transition relation, seeded random system generation, and the two
end-to-end equivalence checkers.

The brute-force fixpoint shares no machinery with `semantics.explore`: it
recomputes enabledness per state from the definitions and expands each
reachable state once, from its own depth-first stack of name tuples rather
than the engine's breadth-first frontier of codes, so a frontier or hashing
bug in the engine cannot hide here.  Its only tables are its own: one
`port -> {local state -> targets}` dict per component, read by state name,
and per interaction its participants ordered by how few local states enable
their port, fewest first.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, fields
from functools import partial

from .errors import ModelError
from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
    _mark_typed,
)
from .reduce_linear import (
    accept_predicate,
    cell_states,
    compile_lsa,
    config_to_gstate,
    head_marker,
)
from .reduce_star import project_state, starify
from .semantics import (
    DEFAULT_MAX_STATES,
    Engine,
    GlobalState,
    ReachResult,
    compile_system,
    is_reachable,
    linked_path,
)
from .turing import DTM, Configuration, Outcome, _moves, initial_config, run_tm
from .validation import bound

BRUTE_FORCE_LIMIT = 10_000

# documented seed batches for the randomized equivalence checks
STAR_EQUIVALENCE_SEEDS = tuple(range(100))
ENGINE_EQUIVALENCE_SEEDS = tuple(range(200))


def _bound(default: int, cap: int):
    """A `GenParams` bound with its default and its inclusive cap."""
    return field(default=default, metadata={"cap": cap})


@dataclass(frozen=True)
class GenParams:
    """Knobs for `gen_random_system`; every bound is inclusive, at least 1
    and at most its cap: 32 components, 32 states, 1,000,000 ports, 128
    interactions and 32 ports per interaction.  A draw's time and memory
    grow with the bounds themselves, not with what it keeps (the
    interaction loop runs up to `max_interactions` times even when most
    draws repeat), so the caps keep every draw small."""

    seed: int
    max_components: int = _bound(4, cap=32)
    max_states: int = _bound(3, cap=32)
    max_ports: int = _bound(4, cap=1_000_000)
    max_interactions: int = _bound(6, cap=128)
    max_interaction_size: int = _bound(3, cap=32)


@dataclass(frozen=True)
class Verdict:
    """A checker's answer.  `complete` is False when the check stopped at
    its bound before it could decide; `agree` is then False too."""

    agree: bool
    complete: bool
    details: str


def _refuse_large(state_sets: list[set[str]]) -> None:
    """Raise the brute-force guard's `ModelError` when the product of the
    state sets exceeds `BRUTE_FORCE_LIMIT`."""
    product_size = math.prod(map(len, state_sets))
    if product_size > BRUTE_FORCE_LIMIT:
        raise ModelError(
            f"product too large for brute force: {product_size} > {BRUTE_FORCE_LIMIT}"
        )


def brute_force_reachable(sys: InteractionSystem) -> set[GlobalState]:
    """Least fixpoint of the global transition relation, guarded at 10,000
    product states, expanding each reachable state once.  Every component's
    behavior, local initial state and transition target, and every
    interaction's components, are checked up front, so every state the
    search reaches lies in the product; an invalid system is refused even
    when its bad transition never fires.  Each component keeps one
    `port -> {local state -> targets}` dict, and each interaction checks its
    participants in order of how few local states enable their port, so
    that a disabled interaction tends to be refused at its first lookup."""
    components = sys.model.components
    for c in components:
        if c not in sys.behaviors:
            raise ModelError(f"component {c} has no behavior (invalid system)")
    behaviors = [sys.behaviors[c] for c in components]
    state_sets = [set(b.states) for b in behaviors]
    _refuse_large(state_sets)

    local: list[dict[str, dict[str, list[str]]]] = []
    for c, b, states in zip(components, behaviors, state_sets):
        if b.initial not in states:
            raise ModelError(
                f"initial state of {c} outside its states (invalid system)"
            )
        by_port: dict[str, dict[str, list[str]]] = {}
        for src, port, dst in b.transitions:
            if dst not in states:
                raise ModelError(
                    f"transition target of {c} outside its states (invalid system)"
                )
            by_port.setdefault(port, {}).setdefault(src, []).append(dst)
        local.append(by_port)

    order = {c: k for k, c in enumerate(components)}
    # per interaction, (component index, port's state dict) pairs, fewest
    # enabling states first; the stable sort keeps `a.ports` order on ties
    needs = []
    for a in sys.model.interactions:
        need = []
        for p in a.ports:
            ci = order.get(p.component)
            if ci is None:
                raise ModelError(
                    f"interaction {a.name} names component {p.component}, "
                    "which the model lacks (invalid system)"
                )
            need.append((ci, local[ci].get(p.port, {})))
        needs.append(sorted(need, key=lambda pair: len(pair[1])))

    initial = tuple(b.initial for b in behaviors)
    reachable = {initial}
    todo = [initial]
    while todo:
        q = todo.pop()
        for need in needs:
            for ci, table in need:
                if q[ci] not in table:
                    break
            else:
                for combo in itertools.product(*[table[q[ci]] for ci, table in need]):
                    succ = list(q)
                    for (ci, _), target in zip(need, combo):
                        succ[ci] = target
                    succ_t = tuple(succ)
                    if succ_t not in reachable:
                        reachable.add(succ_t)
                        todo.append(succ_t)
    return reachable


def gen_random_system(params: GenParams) -> InteractionSystem:
    """A pseudo-random valid system, deterministic for a given seed.

    Interactions are drawn first and port families collect exactly the ports
    the interactions use, so every port is covered by construction.  Local
    relations are sometimes nondeterministic and some ports may never be
    enabled; both are legal.  Its names are f-strings: it is marked typed."""
    for f in fields(params)[1:]:
        # the bounds after `seed`
        value, cap = bound(getattr(params, f.name), f.name), f.metadata["cap"]
        if value > cap:
            raise ModelError(f"{f.name} must be at most {cap}")
    rng = random.Random(params.seed)
    n_comp = rng.randint(1, params.max_components)
    comps = [f"k{j}" for j in range(n_comp)]

    interactions: list[Interaction] = []
    seen: set[frozenset[PortId]] = set()
    order = {c: k for k, c in enumerate(comps)}
    for _ in range(rng.randint(1, params.max_interactions)):
        size = rng.randint(1, min(params.max_interaction_size, n_comp))
        members = rng.sample(comps, size)
        pids = tuple(
            sorted(
                (PortId(c, f"p{rng.randrange(params.max_ports)}") for c in members),
                key=lambda p: order[p.component],
            )
        )
        key = frozenset(pids)
        if key in seen:
            continue
        seen.add(key)
        interactions.append(Interaction(f"alpha_{len(interactions)}", pids))

    used: dict[str, list[str]] = {c: [] for c in comps}
    for a in interactions:
        for pid in a.ports:
            if pid.port not in used[pid.component]:
                used[pid.component].append(pid.port)
    ports = {c: tuple(sorted(used[c])) for c in comps}

    behaviors: dict[str, LocalBehavior] = {}
    for c in comps:
        n_states = rng.randint(1, params.max_states)
        states = tuple(f"q{j}" for j in range(n_states))
        transitions: set[tuple[str, str, str]] = set()
        for s in states:
            for port in ports[c]:
                roll = rng.random()
                if roll < 0.75:
                    transitions.add((s, port, rng.choice(states)))
                if roll < 0.2:
                    transitions.add((s, port, rng.choice(states)))
        behaviors[c] = LocalBehavior(states, frozenset(transitions), states[0])

    model = InteractionModel(tuple(comps), ports, tuple(interactions))
    return _mark_typed(InteractionSystem(model, behaviors))


def _image_moves(machine: DTM, config: Configuration, eng: Engine, steps: int):
    """Per move of the run's first `steps` from `config`, read off a fresh
    drain of `turing._moves`, the two cells of the image it changes, each
    followed by its new digit: the cell the head leaves, then the cell it
    enters, which differ, since the head moves one cell.  A digit is None
    where the cell lacks the state, which no digit equals."""
    marker = head_marker(machine)
    states = cell_states(machine)
    index = eng.state_index
    for left, head, state, tape in itertools.islice(_moves(machine, config), steps):
        yield (
            left,
            index[left].get(states[marker, tape[left]]),
            head,
            index[head].get(states[state, tape[head]]),
        )


def _linked_lockstep(eng: Engine, reach: ReachResult, steps: int, moves) -> bool:
    """Whether the search behind `reach` proves the lockstep of the run's
    first `steps` moves, as `_image_moves` yields them from the
    configuration whose image is the initial state, without expanding an
    image.  It does when the search found exactly the T + 1 images
    (T = `steps`), each later one first from the one before, and counted
    T transitions when it stopped at a hit, or T plus the last image's
    successors when it found none.  The images are then the found states
    at depths 0..T, every one the search expanded (all but the last at a
    hit; all of them otherwise, since a search that drops a state at its
    bound still expands and counts every state it found) has the next as a
    successor, and the counts leave room for no other: each image before
    the last has exactly one successor, the next image."""
    if reach.states_explored != steps + 1:
        return False
    if reach.reachable and reach.transitions_explored != steps:
        return False
    end = linked_path(reach, eng, moves)
    if end is None:
        return False
    return reach.reachable or reach.transitions_explored == steps + len(eng.successors(*end))


def _lockstep_check(
    machine: DTM, word: str, sys_m: InteractionSystem, steps: int,
    reach: ReachResult | None = None,
) -> tuple[bool, str]:
    """Replay the run's first `steps` moves from the compiled system's own
    initial state, which must be the initial configuration's image,
    `pack(config_to_gstate(...))`: each state before a move must enable
    exactly one interaction, whose successor is the image of the next
    configuration.

    Given `is_reachable`'s result on the system, the search's parent links
    and counts settle a lockstep that holds without expanding an image (see
    `_linked_lockstep`).  Otherwise each move is expanded: the image is kept
    as the engine's digits, and a move changes it only at the cell the head
    leaves and the cell it enters; the successor's digits are read off its
    code by `Engine.moved` and must equal the image."""
    eng = compile_system(sys_m)
    config = initial_config(machine, word)
    code, here = eng.pack(config_to_gstate(machine, word, config))
    if code != eng.initial_code:
        return False, "initial state is not the image of the initial configuration"
    held = True, f"lockstep held for {steps} steps"
    moves = partial(_image_moves, machine, config, eng, steps)
    if reach is not None and _linked_lockstep(eng, reach, steps, moves()):
        return held
    image = list(here)
    for step_no, (left, digit_left, head, digit_head) in enumerate(moves()):
        image[left], image[head] = digit_left, digit_head
        succs = eng.successors(code, here)
        if len(succs) != 1:
            return False, f"step {step_no}: {len(succs)} successors, expected 1"
        name, code = succs[0]
        here = eng.moved(here, code, eng.parts(name))
        if here != tuple(image):
            return False, f"step {step_no}: successor mismatch via {name}"
    return held


def check_theorem1(machine: DTM, word: str, max_states: int | None = None) -> Verdict:
    """Machine acceptance of the word versus reachability of the accept
    predicate in the compiled line system, plus the lockstep replay.
    `compile_lsa` validates the machine before `run_tm` runs it.

    One bound N (default 1,000,000) caps both the run, at N steps, and the
    search, at N states: the line system's reachable set holds the image
    of every configuration of the run, so a run longer than N − 1 steps is
    out of the search's reach anyway.  A run stopped at its step limit, or
    a search stopped at its bound, leaves the verdict undecided: not
    complete and not agreeing, with `details` naming where it stopped.  The
    lockstep replays only the steps that ran, reading the search's parent
    links where they settle it and expanding each image where they do not
    (a loop, a bound short of the run, or a fault, whose text the
    expansion gives)."""
    limit = DEFAULT_MAX_STATES if max_states is None else bound(max_states, "max_states")
    sys_m = compile_lsa(machine, word)
    run = run_tm(machine, word, max_steps=limit)
    reach = is_reachable(sys_m, accept_predicate(machine, word), max_states=limit)
    lock_ok, lock_msg = _lockstep_check(machine, word, sys_m, run.steps, reach)
    complete = run.outcome is not Outcome.STEP_LIMIT and reach.complete
    tm_accepts = run.outcome is Outcome.ACCEPT
    agree = complete and (tm_accepts == reach.reachable) and lock_ok
    reachable = f"reachable={reach.reachable}"
    if not reach.complete:
        reachable += f" (search stopped at {reach.states_explored} states)"
    details = f"tm={run.outcome.value} in {run.steps} steps; {reachable}; {lock_msg}"
    return Verdict(agree, complete, details)


def check_theorem2(sys: InteractionSystem) -> Verdict:
    """Brute-force reachable set of the system versus the hub-idle projection
    of the brute-force reachable set of its starification.  `starify` runs
    first: it validates the system, so every lifted state has the source
    system's components plus the hub, and `project_state` checks no more
    than that length.  Both products are checked against the brute-force
    guard before either search runs, the source's first."""
    transformed = starify(sys)
    for system in (sys, transformed):
        _refuse_large([set(b.states) for b in system.behaviors.values()])
    base = brute_force_reachable(sys)
    lifted = brute_force_reachable(transformed)
    projected = set()
    for q in lifted:
        p = project_state(sys, q)
        if p is not None:
            projected.add(p)
    agree = projected == base
    details = (
        f"|reach|={len(base)} |reach'|={len(lifted)} |projected|={len(projected)}"
    )
    return Verdict(agree, True, details)
