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


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Engine:
    """Index-packed view of a validated system.  `fire` is the one firing
    rule: successors, `step`, enabledness and trace replay are all read off
    it, and `search` is the one breadth-first loop over it.  A global
    state's names and its code translate through `pack` and `names` only,
    and a predicate's names through `resolve`.

    Codes: a state's digits are its local state indices, one per component,
    and its code is the mixed-radix integer `Σ q_c·w_c`, where component 0
    has weight 1 and each later weight is the one before times that
    component's number of local states, so every state has exactly one
    code.  A participant moving from `s` to `t` moves the code by
    `(t − s)·w_c`, and `moved` reads a successor's digits back off its code
    for the participants only.

    Rule tables: each interaction, in name order, is a rule `(name, parts)`
    whose parts are `(component index, table)` pairs in component order;
    `table[s]` is the ascending tuple of the code steps `(t − s)·w_c` to
    the targets the participant's port leads to from local state `s`, empty
    when `s` disables the port; the weight is `weights[ci]`.  Only the
    build and `fire` read a table.  Enabledness mask: rule `k` owns bit
    `k`, and each component with a local state that disables some rule's
    port has a row of ints, where `row[s]` has bit `k` set unless rule `k`
    needs a port that `s` disables.  The AND of a state's rows is exactly
    its enabled set, and walking its set bits from low to high visits the
    enabled rules in name order, so the canonical order comes from
    generation, not sorting.  One walker, `_set_bits`, serves both
    `enabled` and the search's split below.  A rule none of whose ports
    has a moving transition is *still*, and `still` has bit `k` set when
    rule `k` is: where one is enabled, every participant's table entry is
    `(0,)`, so it can only fire back to the state it fired from.

    `fire` returns the code steps to a state's successors, not their
    codes; a caller adds the state's code.  A one-participant rule's steps
    are its table entry, and several participants with one step each sum
    to a 1-tuple, so most transitions allocate nothing.  The search keeps,
    per search, a dict from each enabledness mask it meets to the mask's
    split: the number of enabled still rules, which it counts as one
    transition each without firing them, and the enabled moving rules as
    `(index, parts)` pairs in name order, the only ones it fires.  A ring
    has one mask, so every state reuses one split.  Every other caller
    fires every enabled rule.  The search dedups on codes.  It carries
    each frontier state's digits in a list parallel to the frontier's
    codes and builds a state's digit tuple once, when its code is first
    seen, copying the parent's and changing only the participants.
    Every search keeps one int per parent link, `parent code·|rules| + rule
    index`: `is_reachable` follows the links back, and `explore` names the
    codes once, at the end.

    An engine is built only from a validated system, by `compile_system`,
    which builds it once per system object and hands the same engine to
    every later call; its tables are shared and never change after
    construction."""

    def __init__(self, sys: InteractionSystem):
        model = sys.model
        self.components = model.components
        self.state_names = [sys.behaviors[c].states for c in model.components]
        self.state_index = [
            {s: k for k, s in enumerate(states)} for states in self.state_names
        ]
        self.comp_index = {c: k for k, c in enumerate(model.components)}
        self.radices = [len(states) for states in self.state_names]
        self.weights = []
        weight = 1
        for radix in self.radices:
            self.weights.append(weight)
            weight *= radix

        # per component, port -> [table, bits] for every port some
        # interaction uses, which validation makes every port a transition
        # uses: the table is shared by the port's rules and filled from the
        # transitions.  Names are validated unique, so name order is a
        # total order, and rule k owns bit k of the mask.
        used: list[dict[str, list]] = [{} for _ in self.components]
        self.interactions: dict[str, Parts] = {}
        for k, a in enumerate(sorted(model.interactions, key=lambda a: a.name)):
            parts = []
            keys = sorted([(self.comp_index[p.component], p.port) for p in a.ports])
            for ci, port in keys:
                entry = used[ci].get(port)
                if entry is None:
                    entry = used[ci][port] = [[()] * self.radices[ci], 0]
                entry[1] |= 1 << k
                parts.append((ci, entry[0]))
            self.interactions[a.name] = tuple(parts)
        self.rules = list(self.interactions.items())
        self.every = range(len(self.rules))

        # rows[ci][s] starts with the bits of the rules component ci does not
        # constrain and gains those of each port local state s enables
        self.full = (1 << len(self.rules)) - 1
        rows = []
        moves = 0
        for ci, c in enumerate(model.components):
            index, weight, ports = self.state_index[ci], self.weights[ci], used[ci]
            constrained = 0
            for _, bits in ports.values():
                constrained |= bits
            row = [self.full ^ constrained] * len(index)
            for src, port, dst in sys.behaviors[c].transitions:
                table, bits = ports[port]
                s = index[src]
                step = (index[dst] - s) * weight
                table[s] = tuple(sorted((*table[s], step))) if table[s] else (step,)
                row[s] |= bits
                if step:
                    moves |= bits
            rows.append(row)
        # a component whose rows are all ones never clears a bit: left out
        self.rows = [
            (ci, tuple(row))
            for ci, row in enumerate(rows)
            if row.count(self.full) < len(row)
        ]
        # rules none of whose ports has a transition that moves a code
        self.still = self.full & ~moves

        self.initial_code, self.initial = self.pack(sys.initial_state())

    def pack(self, q: GlobalState) -> tuple[int, tuple[int, ...]]:
        """The code and digits of a global state, rejecting a state of the
        wrong length or with a name its component lacks."""
        if len(q) != len(self.components):
            raise ModelError(
                f"global state has {len(q)} entries, expected {len(self.components)}"
            )
        code = 0
        digits = []
        for ci, s in enumerate(q):
            k = self.state_index[ci].get(s)
            if k is None:
                raise ModelError(
                    f"no such state: {s!r} in component {self.components[ci]}"
                )
            code += k * self.weights[ci]
            digits.append(k)
        return code, tuple(digits)

    def names(self, code: int) -> GlobalState:
        """The global state, as local state names, whose code is `code`."""
        q = []
        for states in self.state_names:
            code, k = divmod(code, len(states))
            q.append(states[k])
        return tuple(q)

    def moved(self, q: tuple[int, ...], code: int, parts: Parts) -> tuple[int, ...]:
        """The digits of `code`, a successor of q by the interaction with
        these participants: q with each participant's digit read off the
        code."""
        succ = list(q)
        radices, weights = self.radices, self.weights
        for ci, _ in parts:
            succ[ci] = code // weights[ci] % radices[ci]
        return tuple(succ)

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

    def fire(self, q: tuple[int, ...], parts: Parts) -> Sequence[int]:
        """The code steps from q to each of its successors by the
        interaction with these participants, in canonical order
        (participants in component order, each one's targets ascending by
        state index); empty when some participant does not enable its
        port.  A successor's code is q's code plus its step."""
        if len(parts) == 1:
            ci, table = parts[0]
            return table[q[ci]]
        total = 0
        for ci, table in parts:
            steps = table[q[ci]]
            if len(steps) != 1:
                break
            total += steps[0]
        else:
            return (total,)
        # some participant has no target or several: each participant
        # multiplies the list by its steps, so the last one's vary fastest
        out = [0]
        for ci, table in parts:
            steps = table[q[ci]]
            out = [c + step for c in out for step in steps]
        return out

    def enabled(self, q: tuple[int, ...]) -> Sequence[int]:
        """The indices into `rules` of the interactions enabled in q, in name
        order: the set bits of the AND of q's mask rows, low to high (every
        rule, as on a ring, when no row clears a bit)."""
        mask = self.full
        for ci, row in self.rows:
            mask &= row[q[ci]]
        return self.every if mask == self.full else _set_bits(mask)

    def successors(self, code: int, q: tuple[int, ...]) -> list[tuple[str, int]]:
        """All (interaction name, successor code) pairs of q, whose code is
        `code`, in canonical order: by name, then as `fire` yields their
        steps."""
        return [
            (self.rules[k][0], code + step)
            for k in self.enabled(q)
            for step in self.fire(q, self.rules[k][1])
        ]

    def search(
        self,
        limit: int | None,
        matches: Callable[[tuple[int, ...]], bool] | None = None,
    ) -> tuple[dict[int, int | None], int, bool, int | None]:
        """Breadth-first search from the initial state in canonical order.

        Returns (seen, transitions, truncated, hit).  `seen` maps the code of
        every discovered state to its parent link, `parent code·|rules| +
        rule index`, and the initial code to None.  At most `limit` states
        (default 1,000,000) are discovered; `truncated` says a new state was
        dropped for it.  The search stops at the first discovered state whose
        digits `matches` accepts, returned as the code `hit` (None when there
        is none); `transitions` then counts every successor of the state
        being expanded, as if it had been expanded in full.
        """
        limit = DEFAULT_MAX_STATES if limit is None else limit
        if limit < 1:
            raise ModelError(f"max_states must be at least 1, got {limit}")
        start = self.initial_code
        seen: dict[int, int | None] = {start: None}
        if matches is not None and matches(self.initial):
            return seen, 0, False, start
        rules, rows, fire, moved = self.rules, self.rows, self.fire, self.moved
        full, still = self.full, self.still
        n = len(rules)
        # enabledness mask -> (enabled still rules, enabled moving rules as
        # (index, parts) pairs in name order)
        splits: dict[int, tuple[int, list[tuple[int, Parts]]]] = {}
        codes, digits = [start], [self.initial]
        transitions = 0
        truncated = False
        room = limit - 1  # new states the bound still admits
        while codes:
            next_codes: list[int] = []
            next_digits: list[tuple[int, ...]] = []
            for code, q in zip(codes, digits):
                mask = full
                for ci, row in rows:
                    mask &= row[q[ci]]
                split = splits.get(mask)
                if split is None:
                    moving = [(k, rules[k][1]) for k in _set_bits(mask & ~still)]
                    split = splits[mask] = ((mask & still).bit_count(), moving)
                stills, moving = split
                transitions += stills
                for k, parts in moving:
                    steps = fire(q, parts)
                    transitions += len(steps)
                    for step in steps:
                        succ = code + step
                        if succ in seen:
                            continue
                        if not room:
                            truncated = True
                            continue
                        room -= 1
                        q2 = moved(q, succ, parts)
                        seen[succ] = code * n + k
                        if matches is not None and matches(q2):
                            # the still rules are already counted
                            for later, others in moving:
                                if later > k:
                                    transitions += len(fire(q, others))
                            return seen, transitions, truncated, succ
                        next_codes.append(succ)
                        next_digits.append(q2)
            codes, digits = next_codes, next_digits
        return seen, transitions, truncated, None


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
    return frozenset(eng.rules[k][0] for k in eng.enabled(eng.pack(q)[1]))


def step(sys: InteractionSystem, q: GlobalState, interaction: str) -> GlobalState:
    """Fire one interaction: its first successor in canonical order, so
    participants move along their local transition (lowest target-state
    index when the local relation is nondeterministic) and everyone else
    keeps its state.  Raises when the interaction is disabled, naming the
    blocking components."""
    eng = compile_system(sys)
    code, packed = eng.pack(q)
    parts = eng.parts(interaction)
    steps = eng.fire(packed, parts)
    if not steps:
        blockers = [
            eng.components[ci] for ci, table in parts if not eng.fire(packed, ((ci, table),))
        ]
        raise ModelError(
            f"interaction disabled: {interaction} blocked by {', '.join(blockers)}"
        )
    return eng.names(code + steps[0])


def successors(
    sys: InteractionSystem, q: GlobalState
) -> list[tuple[str, GlobalState]]:
    """All global transitions out of q, including every resolution of local
    nondeterminism, in canonical order: by interaction name, then by
    successor (local state indices, in component order)."""
    eng = compile_system(sys)
    return [(name, eng.names(code)) for name, code in eng.successors(*eng.pack(q))]


def explore(sys: InteractionSystem, max_states: int | None = None) -> ReachableSet:
    """Breadth-first fixpoint from the global initial state.  When
    `max_states` (default 1,000,000) is hit, discovery stops and the
    completion flag is False; a bound below 1 is rejected."""
    eng = compile_system(sys)
    seen, transitions, truncated, _ = eng.search(max_states)
    return ReachableSet(
        states={eng.names(code) for code in seen},
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
    # lookup per filed component, and a list found there holds predicates
    # whose first constraint q meets: `matches` checks only their rests,
    # breaking at the first constraint that fails, so an empty rest holds
    # at once.  A predicate without constraints holds everywhere.
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
            if rests is not None:
                for rest in rests:
                    for cj, sj in rest:
                        if q[cj] != sj:
                            break
                    else:
                        return True
        return anywhere

    parents, transitions, truncated, hit = eng.search(max_states, matches)
    if hit is None:
        return ReachResult(False, None, len(parents), transitions, not truncated)
    trace: list[str] = []
    link = parents[hit]
    while link is not None:
        hit, k = divmod(link, len(eng.rules))
        trace.append(eng.rules[k][0])
        link = parents[hit]
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
    # code -> digits of every state the trace can be in
    current = {eng.initial_code: eng.initial}
    for k, name in enumerate(trace):
        parts = eng.parts(name)
        following: dict[int, tuple[int, ...]] = {}
        for code, q in current.items():
            for step in eng.fire(q, parts):
                succ = code + step
                if succ not in following:
                    following[succ] = eng.moved(q, succ, parts)
        if not following:
            raise ModelError(f"trace step {k} ({name}) is not fireable")
        current = following
    return {eng.names(code) for code in current}
