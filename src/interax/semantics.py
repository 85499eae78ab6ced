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

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ModelError
from .model import InteractionSystem, validate_system

GlobalState = tuple[str, ...]
# an interaction's (component index, table) participants; see `Engine`
Parts = tuple[tuple[int, list[tuple[int, ...]]], ...]

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

    Rule tables: each interaction, in name order, is a rule `(name, parts)`
    whose parts are `(component index, table)` pairs in component order;
    `table[s]` is the ascending tuple of target indices the participant's
    port leads to from local state `s`, empty when `s` disables the port.
    Enabledness mask: rule `k` owns bit `k`, and each component with a
    local state that disables some rule's port has a row of ints, where
    `row[s]` has bit `k` set unless rule `k` needs a port that `s`
    disables.  The AND of a state's rows is exactly its enabled set, and
    walking its set bits from low to high visits the enabled rules in name
    order, so the canonical order comes from generation, not sorting.

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

        # name -> (component index, table) participants in component order;
        # names are validated unique, so name order is a total order, and
        # rule k owns bit k of the mask.  A port some interaction uses gets
        # one table, shared by its rules and filled from the transitions.
        tables: dict[tuple[int, str], list[tuple[int, ...]]] = {}
        port_bits: dict[tuple[int, str], int] = {}
        self.interactions: dict[str, Parts] = {}
        for k, a in enumerate(sorted(model.interactions, key=lambda a: a.name)):
            parts = []
            ports = sorted((self.comp_index[p.component], p.port) for p in a.ports)
            for key in ports:
                if key not in tables:
                    tables[key] = [()] * len(self.state_names[key[0]])
                    port_bits[key] = 0
                port_bits[key] |= 1 << k
                parts.append((key[0], tables[key]))
            self.interactions[a.name] = tuple(parts)
        self.rules = list(self.interactions.items())

        # rows[ci][s] starts with the bits of the rules component ci does not
        # constrain and gains those of each port local state s enables
        self.full = (1 << len(self.rules)) - 1
        free = [self.full] * len(self.components)
        for (ci, _), bits in port_bits.items():
            free[ci] &= ~bits
        rows = []
        for ci, c in enumerate(model.components):
            index = self.state_index[ci]
            row = [free[ci]] * len(index)
            for src, port, dst in sys.behaviors[c].transitions:
                table = tables.get((ci, port))
                if table is not None:
                    s, t = index[src], index[dst]
                    table[s] = tuple(sorted((*table[s], t))) if table[s] else (t,)
                    row[s] |= port_bits[ci, port]
            rows.append(row)
        # a component whose rows are all ones never clears a bit: left out
        self.rows = [
            (ci, tuple(row))
            for ci, row in enumerate(rows)
            if row.count(self.full) < len(row)
        ]

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

    def parts(self, name: str) -> Parts:
        """The (component index, table) participants of an interaction."""
        parts = self.interactions.get(name)
        if parts is None:
            raise ModelError(f"no such interaction: {name!r}")
        return parts

    def fire(self, q: tuple[int, ...], parts: Parts) -> list[tuple[int, ...]]:
        """Every successor of q by the interaction with these participants,
        in canonical order (participants in component order, each one's
        targets ascending by state index); [] when some participant does not
        enable its port."""
        succ = list(q)
        branching = False
        for ci, table in parts:
            targets = table[q[ci]]
            if not targets:
                return []
            if len(targets) > 1:
                branching = True
            succ[ci] = targets[0]
        if not branching:
            return [tuple(succ)]
        # one copy per target of each branching participant, so the last
        # participant's targets vary fastest
        out = [succ]
        for ci, table in parts:
            targets = table[q[ci]]
            if len(targets) > 1:
                grown = []
                for partial in out:
                    for target in targets:
                        copy = partial.copy()
                        copy[ci] = target
                        grown.append(copy)
                out = grown
        return [tuple(s) for s in out]

    def enabled(self, q: tuple[int, ...]) -> list[tuple[str, Parts]]:
        """The (name, parts) rules of the interactions enabled in q, in name
        order: the set bits of the AND of q's mask rows, low to high."""
        mask = self.full
        for ci, row in self.rows:
            mask &= row[q[ci]]
        rules = self.rules
        out = []
        while mask:
            low = mask & -mask
            out.append(rules[low.bit_length() - 1])
            mask ^= low
        return out

    def successors(self, q: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
        """All (interaction name, successor) pairs in canonical order: by
        name, then as `fire` yields them."""
        return [
            (name, succ)
            for name, parts in self.enabled(q)
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
    return frozenset(name for name, _ in eng.enabled(eng.pack(q)))


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
        blockers = [eng.components[ci] for ci, table in parts if not table[packed[ci]]]
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
    # each predicate filed under its first constraint, so a state costs one
    # lookup per filed component; a predicate without constraints holds
    # everywhere
    filed: dict[int, dict[int, list[list[tuple[int, int]]]]] = {}
    anywhere = False
    for t in targets:
        need = eng.resolve(t)
        if need:
            (ci, si), *rest = need
            filed.setdefault(ci, {}).setdefault(si, []).append(rest)
        else:
            anywhere = True
    groups = list(filed.items())

    def matches(q: tuple[int, ...]) -> bool:
        for ci, by_state in groups:
            rests = by_state.get(q[ci])
            if rests is not None and any(
                all(q[cj] == sj for cj, sj in rest) for rest in rests
            ):
                return True
        return anywhere

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
