"""Composed global semantics and explicit-state reachability.

A global state is a tuple of local state names, one per component, in the
model's component order.  Interactions fire atomically: every participant
takes a local transition labeled by its port, every other component keeps its
state.  Exploration is breadth-first with a canonical expansion order
(interaction name ascending, then successor state ascending by local state
indices), so reachable sets, traces, and counters are reproducible.  The
order comes from generation itself, never from sorting afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ModelError
from .model import InteractionSystem, validate_system

GlobalState = tuple[str, ...]

DEFAULT_MAX_STATES = 1_000_000


@dataclass(frozen=True)
class StatePredicate:
    """Exact-state constraints per component; unlisted components match any
    state.  Build with `StatePredicate.of({"S": "busy"})`; every value is a
    state name, "*" included."""

    constraints: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, constraints: Mapping[str, str]) -> "StatePredicate":
        return cls(tuple(sorted(constraints.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.constraints)


@dataclass
class ReachableSet:
    """Result of `explore`: the reachable states, the number of transition
    edges generated, and whether the fixpoint completed within the bound."""

    states: set[GlobalState]
    transitions: int
    complete: bool


@dataclass
class ReachResult:
    """Result of `is_reachable`.  `trace` is a shortest witness (interaction
    names) when reachable, else None.  `complete` is False only when the
    search was truncated by `max_states` before finding a witness."""

    reachable: bool
    trace: list[str] | None
    states_explored: int
    transitions_explored: int
    complete: bool


class Engine:
    """Index-packed view of a validated system.  `fire` is the one firing
    rule: successors, `step`, enabledness and trace replay are all read off
    it, and `search` is the one breadth-first loop over `successors`.
    `pack`, `unpack` and `resolve` are the only translation between the
    system's component and state names and the engine's indices.

    Get one through `compile_system`, which builds it once per system object
    and hands the same engine to every later call; its tables are shared and
    never change after construction."""

    def __init__(self, sys: InteractionSystem):
        model = sys.model
        self.components = model.components
        self.state_names = [sys.behaviors[c].states for c in model.components]
        self.state_index = [
            {s: k for k, s in enumerate(states)} for states in self.state_names
        ]
        self.comp_index = {c: k for k, c in enumerate(model.components)}

        # per component: (state index, port) -> ascending target indices
        self.moves: list[dict[tuple[int, str], tuple[int, ...]]] = []
        for ci, c in enumerate(model.components):
            b = sys.behaviors[c]
            index = self.state_index[ci]
            table: dict[tuple[int, str], list[int]] = {}
            for src, port, dst in b.transitions:
                table.setdefault((index[src], port), []).append(index[dst])
            self.moves.append({k: tuple(sorted(set(v))) for k, v in table.items()})

        # name -> (component index, port) participants in component order;
        # names are validated unique, so name order is a total order
        self.interactions: dict[str, tuple[tuple[int, str], ...]] = {
            a.name: tuple(sorted((self.comp_index[p.component], p.port) for p in a.ports))
            for a in sorted(model.interactions, key=lambda a: a.name)
        }

        self.initial = tuple(
            self.state_index[ci][sys.behaviors[c].initial]
            for ci, c in enumerate(model.components)
        )

    def pack(self, q: GlobalState) -> tuple[int, ...]:
        if len(q) != len(self.components):
            raise ModelError(
                f"global state has {len(q)} entries, expected {len(self.components)}"
            )
        packed = []
        for ci, s in enumerate(q):
            k = self.state_index[ci].get(s)
            if k is None:
                raise ModelError(
                    f"no such state: {s!r} in component {self.components[ci]}"
                )
            packed.append(k)
        return tuple(packed)

    def unpack(self, q: tuple[int, ...]) -> GlobalState:
        return tuple(self.state_names[ci][k] for ci, k in enumerate(q))

    def resolve(self, pred: StatePredicate) -> list[tuple[int, int]]:
        """The predicate's constraints as (component index, state index)
        pairs, rejecting names the system does not have."""
        out = []
        for comp, state in pred.constraints:
            ci = self.comp_index.get(comp)
            if ci is None:
                raise ModelError(f"predicate names unknown component {comp!r}")
            si = self.state_index[ci].get(state)
            if si is None:
                raise ModelError(
                    f"predicate names unknown state {state!r} of component {comp}"
                )
            out.append((ci, si))
        return out

    def parts(self, name: str) -> tuple[tuple[int, str], ...]:
        """The (component index, port) participants of an interaction."""
        parts = self.interactions.get(name)
        if parts is None:
            raise ModelError(f"no such interaction: {name!r}")
        return parts

    def fire(
        self, q: tuple[int, ...], parts: tuple[tuple[int, str], ...]
    ) -> list[tuple[int, ...]]:
        """Every successor of q by the interaction with these participants,
        in canonical order (participants in component order, each one's
        targets ascending by state index); [] when some participant does not
        enable its port."""
        choices = []
        for ci, port in parts:
            targets = self.moves[ci].get((q[ci], port))
            if targets is None:
                return []
            choices.append(targets)
        out = []
        for combo in itertools.product(*choices):
            succ = list(q)
            for (ci, _), target in zip(parts, combo):
                succ[ci] = target
            out.append(tuple(succ))
        return out

    def successors(self, q: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
        """All (interaction name, successor) pairs in canonical order: by
        name, then as `fire` yields them."""
        return [
            (name, succ)
            for name, parts in self.interactions.items()
            for succ in self.fire(q, parts)
        ]

    def search(
        self,
        limit: int | None,
        matches: Callable[[tuple[int, ...]], bool] | None = None,
    ) -> tuple[dict, int, bool, tuple[int, ...] | None]:
        """Breadth-first search from the initial state in canonical order.

        Returns (parents, transitions, truncated, hit).  `parents` maps every
        discovered state to (predecessor, interaction), the initial state to
        None, and is the visited set.  At most `limit` states (default
        1,000,000) are discovered; `truncated` says a new state was dropped for
        it.  The search stops at the first discovered state `matches` accepts,
        returned as `hit` (None when there is none).
        """
        limit = DEFAULT_MAX_STATES if limit is None else limit
        if limit < 1:
            raise ModelError(f"max_states must be at least 1, got {limit}")
        parents: dict[tuple[int, ...], tuple[tuple[int, ...], str] | None] = {
            self.initial: None
        }
        if matches is not None and matches(self.initial):
            return parents, 0, False, self.initial
        frontier = [self.initial]
        transitions = 0
        truncated = False
        while frontier:
            next_frontier: list[tuple[int, ...]] = []
            for q1 in frontier:
                succs = self.successors(q1)
                transitions += len(succs)
                for name, q2 in succs:
                    if q2 in parents:
                        continue
                    if len(parents) >= limit:
                        truncated = True
                        continue
                    parents[q2] = (q1, name)
                    if matches is not None and matches(q2):
                        return parents, transitions, truncated, q2
                    next_frontier.append(q2)
            frontier = next_frontier
        return parents, transitions, truncated, None


def compile_system(sys: InteractionSystem) -> Engine:
    """The search engine of a valid system, built once per system object.

    The first call validates the system and builds its engine, which is kept
    on the object; every later call returns that engine.  Systems are
    immutable, so it can never go stale.  An invalid system raises
    `ModelError` on every call and keeps nothing."""
    eng = getattr(sys, "_engine", None)
    if eng is None:
        validate_system(sys).raise_if_failed("system")
        eng = Engine(sys)
        object.__setattr__(sys, "_engine", eng)
    return eng


def enabled_interactions(sys: InteractionSystem, q: GlobalState) -> frozenset[str]:
    """Names of interactions whose every participant enables its port in q."""
    eng = compile_system(sys)
    packed = eng.pack(q)
    return frozenset(
        name for name, parts in eng.interactions.items() if eng.fire(packed, parts)
    )


def step(sys: InteractionSystem, q: GlobalState, interaction: str) -> GlobalState:
    """Fire one interaction: its first successor in canonical order, so
    participants move along their local transition (lowest target-state
    index when the local relation is nondeterministic) and everyone else
    keeps its state.  Raises when the interaction is disabled, naming the
    blocking components."""
    eng = compile_system(sys)
    packed = eng.pack(q)
    parts = eng.parts(interaction)
    succs = eng.fire(packed, parts)
    if not succs:
        blockers = [
            eng.components[ci]
            for ci, port in parts
            if (packed[ci], port) not in eng.moves[ci]
        ]
        raise ModelError(
            f"interaction disabled: {interaction} blocked by {', '.join(blockers)}"
        )
    return eng.unpack(succs[0])


def successors(
    sys: InteractionSystem, q: GlobalState
) -> list[tuple[str, GlobalState]]:
    """All global transitions out of q, including every resolution of local
    nondeterminism, in canonical order: by interaction name, then by
    successor (local state indices, in component order)."""
    eng = compile_system(sys)
    return [(name, eng.unpack(s)) for name, s in eng.successors(eng.pack(q))]


def explore(sys: InteractionSystem, max_states: int | None = None) -> ReachableSet:
    """Breadth-first fixpoint from the global initial state.  When
    `max_states` (default 1,000,000) is hit, discovery stops and the
    completion flag is False; a bound below 1 is rejected."""
    eng = compile_system(sys)
    parents, transitions, truncated, _ = eng.search(max_states)
    return ReachableSet(
        states={eng.unpack(q) for q in parents},
        transitions=transitions,
        complete=not truncated,
    )


def resolve_predicate(
    sys: InteractionSystem, constraints: Mapping[str, str]
) -> StatePredicate:
    """Build a predicate against a system, rejecting unknown names.  It
    stays because the benchmark's ring-reach job calls it; ROADMAP item 1
    removes that caller."""
    pred = StatePredicate.of(constraints)
    compile_system(sys).resolve(pred)
    return pred


def satisfies(sys: InteractionSystem, pred: StatePredicate, q: GlobalState) -> bool:
    """Does the global state meet every exact constraint of the predicate?
    Raises on a state, or a predicate, naming a component or state the
    system lacks."""
    eng = compile_system(sys)
    packed = eng.pack(q)
    return all(packed[ci] == si for ci, si in eng.resolve(pred))


def is_reachable(
    sys: InteractionSystem,
    target: StatePredicate | Sequence[StatePredicate],
    max_states: int | None = None,
) -> ReachResult:
    """Decide whether a state satisfying `target` (any member, when a list is
    given) is reachable, returning a shortest witness trace when it is.

    Truncated searches that found nothing report reachable=False with
    complete=False; a `max_states` below 1 is rejected.
    """
    targets = [target] if isinstance(target, StatePredicate) else list(target)
    if not targets:
        raise ModelError("empty target disjunction")
    eng = compile_system(sys)
    needs = [eng.resolve(t) for t in targets]

    def matches(q: tuple[int, ...]) -> bool:
        return any(all(q[ci] == si for ci, si in need) for need in needs)

    parents, transitions, truncated, hit = eng.search(max_states, matches)
    if hit is None:
        return ReachResult(False, None, len(parents), transitions, not truncated)
    trace: list[str] = []
    while parents[hit] is not None:
        hit, via = parents[hit]
        trace.append(via)
    trace.reverse()
    return ReachResult(True, trace, len(parents), transitions, True)


def replay_trace(
    sys: InteractionSystem, trace: Iterable[str]
) -> set[GlobalState]:
    """All states reachable from the initial state by firing exactly the
    given interaction names in order, under every resolution of local
    nondeterminism.  Raises on an unknown interaction name, or if some step is
    impossible from every state of the current set."""
    eng = compile_system(sys)
    current = {eng.initial}
    for k, name in enumerate(trace):
        parts = eng.parts(name)
        following = {q2 for q in current for q2 in eng.fire(q, parts)}
        if not following:
            raise ModelError(f"trace step {k} ({name}) is not fireable")
        current = following
    return {eng.unpack(q) for q in current}
