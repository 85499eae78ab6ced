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

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ModelError
from .model import InteractionSystem, validate_system
from .validation import bound

GlobalState = tuple[str, ...]
# an interaction's (component index, table) participants; see `Engine`
Parts = tuple[tuple[int, list[tuple[int, ...]]], ...]
# a state, its (name, successor) list and its first successor by name
Record = tuple[object, list[tuple[str, GlobalState]], dict[str, GlobalState]]

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
    search was truncated by `max_states` before finding a witness.

    `is_reachable` also keeps the search's parent links on the result, as
    the private attribute `_links` outside the fields, so `==` and `repr`
    ignore them; only `linked_path` reads them."""

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
    state's names become its code through `pack`, and a predicate's names
    through `resolve`; a code becomes names through `names`, `renamed` and
    `decode` only.

    Codes: a state's digits are its local state indices, one per component,
    and its code is the mixed-radix integer `Σ q_c·w_c`, where component 0
    has weight 1 and each later weight is the one before times that
    component's number of local states, so every state has exactly one
    code.  A participant moving from `s` to `t` moves the code by
    `(t − s)·w_c`.  Two readers take a successor's participants only off
    its code and copy the rest from its predecessor: `moved` reads their
    digits, for the search, and `renamed` their names, for `successors`
    and `step`.  `decode` names a whole set of codes for `explore`: it
    splits each code at the weight of the middle component, names each
    distinct low half and each distinct high half once, and joins them.

    Rule tables: each interaction, in name order, is a rule `(name, parts)`
    whose parts are `(component index, table)` pairs in component order;
    `table[s]` is the ascending tuple of the code steps `(t − s)·w_c` to
    the targets the participant's port leads to from local state `s`, empty
    when `s` disables the port; the weight is `weights[ci]`.  The build
    keeps the name order (`ordered`, and `rule_index` by name), each rule's
    bit and the mask rows below, but no table: `rules[k]` is None until
    `rule(k)` builds it on first use.  That builds each (component, port)
    table once, from the port's (source digit, target digit) pairs in
    `pairs[ci]` scaled by the weight, and shares it among the rules that
    use the port (two threads may each build an equal one); it fills
    `fixed[k]` for a fixed rule and stores `rules[k]` last, in one
    assignment, as `_record_of` stores the record, so a thread that finds
    the rule finds all it needs.  Every reader takes rule k as `rules[k] or
    rule(k)`, so a search builds only the rules enabled where it expands a
    state: a line check about a fifth of them.  `rule`, `fire` and the
    search read a table, the search for a fixed rule's steps only (see
    below).  A one-participant rule is *fixed* when all its non-empty table
    entries have the same length, its fan-out, and `fixed` maps its index
    to `(component index, table, fan-out)` once it is built.

    Enabledness mask: rule `k` owns bit `k`, and each component with a local
    state that disables some rule's port has a row of ints, where `row[s]`
    has bit `k` set unless rule `k` needs a port that `s` disables.  The AND
    of a state's rows is exactly its enabled set, and walking its set bits
    from low to high visits the enabled rules in name order, so the
    canonical order comes from generation, not sorting.  One walker,
    `_set_bits`, serves both `enabled` and the search's split below.  A rule
    none of whose ports has a moving transition is *still*, and `still` has
    bit `k` set when rule `k` is: where one is enabled, every participant's
    table entry is `(0,)`, so it can only fire back to the state it fired
    from.

    `fire` returns the code steps to a state's successors, not their
    codes; a caller adds the state's code.  A one-participant rule's steps
    are its table entry, and several participants with one step each sum
    to a 1-tuple, so most transitions allocate nothing.  The search keeps,
    per search, a dict from each enabledness mask it meets to the mask's
    split: the number of transitions of its enabled still rules, one
    each, and of its enabled fixed rules, their fan-out each, which the
    search adds at each state with that mask without a `len`; and the
    enabled moving rules in name order as
    `(index, parts, component index, table)`.  The table is a fixed rule's
    own, and the search takes such a rule's steps as its participant's
    entry, all that `fire` would return, since on a ring, whose moving
    rules are all ticks, the calls cost about a fifth of the search.  It
    is None for any other rule, which the search fires and counts by its
    steps: a rule with several participants, or with one whose fan-out
    varies.  At a hit, the search adds only the later rules of this kind.
    A ring has one mask, so every state reuses one split.  Every other
    caller fires every enabled rule.  The search dedups on codes.  It carries
    each frontier state's digits in a list parallel to the frontier's
    codes and builds a state's digit tuple once, when its code is first
    seen, copying the parent's and changing only the participants.
    Every search keeps one int per parent link, `parent code·|rules| + rule
    index`: `is_reachable` follows the links back and keeps them on its
    result for `linked_path`, and `explore` decodes the codes once,
    at the end.

    The record: the engine keeps one tuple `(state, successors, firsts)`
    for the last global state tuple the per-state calls were asked about,
    by identity: its (name, successor) list and its first successor by
    name.  `_record_of` builds it whole and stores it with one assignment,
    so `enabled_interactions`, `successors` and `step` on one state do its
    work once, also from several threads.  A list, which may change, is
    never remembered, nor is a state `pack` refuses.

    An engine is built only from a validated system, by `compile_system`,
    which builds it once per system object and hands the same engine to
    every later call; each of its tables is built once on first use,
    published by one assignment, and never changes after."""

    def __init__(self, sys: InteractionSystem):
        model = sys.model
        self.components = model.components
        self.state_names = [sys.behaviors[c].states for c in model.components]
        # one index per distinct states tuple, which a compiled line's cells share
        by_id = {id(states): states for states in self.state_names}
        by_id = {key: {s: k for k, s in enumerate(states)} for key, states in by_id.items()}
        self.state_index = [by_id[id(states)] for states in self.state_names]
        self.comp_index = {c: k for k, c in enumerate(model.components)}
        self.radices = [len(states) for states in self.state_names]
        self.weights = []
        weight = 1
        for radix in self.radices:
            self.weights.append(weight)
            weight *= radix

        # per component, port -> the bits of the rules that use it, for
        # every port some interaction uses, which validation makes every
        # port a transition uses.  Names are validated unique, so name order
        # is a total order, and rule k owns bit k of the mask.
        used: list[dict[str, int]] = [{} for _ in self.components]
        self.ordered = sorted(model.interactions, key=attrgetter("name"))
        self.rule_index = {a.name: k for k, a in enumerate(self.ordered)}
        for k, a in enumerate(self.ordered):
            for c, port in a.ports:
                mine = used[self.comp_index[c]]
                mine[port] = mine.get(port, 0) | 1 << k
        self.rules: list[tuple[str, Parts] | None] = [None] * len(self.ordered)
        self.every = range(len(self.rules))
        self.tables: list[dict[str, list[tuple[int, ...]]]] = [{} for _ in used]
        self.fixed: dict[int, tuple[int, list[tuple[int, ...]], int]] = {}

        # rows[ci][s] starts with the bits of the rules component ci does not
        # constrain and gains those of each port local state s enables.
        # `pairs[ci]` maps each port to its (source digit, target digit)
        # pairs, read once per distinct (states, transitions) objects, as a
        # compiled line's inner cells share them.
        self.full = (1 << len(self.rules)) - 1
        indexes: dict[tuple[int, int], dict[str, list[tuple[int, int]]]] = {}
        self.pairs: list[dict[str, list[tuple[int, int]]]] = []
        rows = []
        moves = 0
        for ci, c in enumerate(model.components):
            b, mine, digit = sys.behaviors[c], used[ci], self.state_index[ci]
            key = id(b.states), id(b.transitions)
            pairs = indexes.get(key)
            fresh = pairs is None
            if fresh:
                pairs = indexes[key] = {}
            self.pairs.append(pairs)
            constrained = 0
            for bits in mine.values():
                constrained |= bits
            row = [self.full ^ constrained] * len(b.states)
            for src, port, dst in b.transitions:
                s, bits = digit[src], mine[port]
                row[s] |= bits
                if src != dst:
                    moves |= bits
                if fresh:
                    found = pairs.get(port)
                    if found is None:
                        found = pairs[port] = []
                    found.append((s, digit[dst]))
            rows.append(row)
        # a component whose rows are all ones never clears a bit: left out
        self.rows = [
            (ci, tuple(row))
            for ci, row in enumerate(rows)
            if row.count(self.full) < len(row)
        ]
        # rules none of whose ports has a transition that moves a code
        self.still = self.full & ~moves

        self._record: Record = (object(), [], {})  # no state yet
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
            try:
                k = self.state_index[ci].get(s)
            except TypeError:  # unhashable: no state's name
                k = None
            if k is None:
                raise ModelError(
                    f"no such state: {s!r} in component {self.components[ci]}"
                )
            code += k * self.weights[ci]
            digits.append(k)
        return code, tuple(digits)

    def names(self, code: int, start: int = 0, stop: int | None = None) -> GlobalState:
        """The global state, as local state names, whose code is `code`; or,
        given a range of components, the names `code` spells for them when
        component `start` has weight 1."""
        q = []
        for states in self.state_names[start:stop]:
            code, k = divmod(code, len(states))
            q.append(states[k])
        return tuple(q)

    def decode(self, codes: Iterable[int]) -> set[GlobalState]:
        """The global states whose codes are `codes`, naming each distinct
        low half and high half of a code once."""
        mid = len(self.radices) // 2
        weight = math.prod(self.radices[:mid])
        lows: dict[int, GlobalState] = {}
        highs: dict[int, GlobalState] = {}
        out = set()
        for code in codes:
            high, low = divmod(code, weight)
            front = lows.get(low)
            if front is None:
                front = lows[low] = self.names(low, 0, mid)
            back = highs.get(high)
            if back is None:
                back = highs[high] = self.names(high, mid)
            out.add(front + back)
        return out

    def moved(self, q: tuple[int, ...], code: int, parts: Parts) -> tuple[int, ...]:
        """The digits of `code`, a successor of q by the interaction with
        these participants: q with each participant's digit read off the
        code."""
        succ = list(q)
        radices, weights = self.radices, self.weights
        for ci, _ in parts:
            succ[ci] = code // weights[ci] % radices[ci]
        return tuple(succ)

    def renamed(self, q: GlobalState, code: int, parts: Parts) -> GlobalState:
        """The names of `code`, a successor of the state named q by the
        interaction with these participants: q with each participant's
        state read off the code."""
        succ = list(q)
        names, radices, weights = self.state_names, self.radices, self.weights
        for ci, _ in parts:
            succ[ci] = names[ci][code // weights[ci] % radices[ci]]
        return tuple(succ)

    def resolve(self, pred: StatePredicate) -> list[tuple[int, int]]:
        """The predicate's constraints as (component index, state index)
        pairs, rejecting names the system does not have."""
        out = []
        for comp, state in pred.constraints:
            ci = self.comp_index.get(comp)
            if ci is None:
                raise ModelError(f"predicate names unknown component {comp!r}")
            try:
                si = self.state_index[ci].get(state)
            except TypeError:  # unhashable: no state's name
                si = None
            if si is None:
                raise ModelError(
                    f"predicate names unknown state {state!r} of component {comp}"
                )
            out.append((ci, si))
        return out

    def parts(self, name: str) -> Parts:
        """The (component index, table) participants of an interaction."""
        try:
            k = self.rule_index.get(name)
        except TypeError:  # unhashable: no interaction's name
            k = None
        if k is None:
            raise ModelError(f"no such interaction: {name!r}")
        return (self.rules[k] or self.rule(k))[1]

    def rule(self, k: int) -> tuple[str, Parts]:
        """Rule k, `(name, parts)`, built on first use (see `Engine`)."""
        a, parts = self.ordered[k], []
        for c, port in a.ports:
            ci = self.comp_index[c]
            tables = self.tables[ci]
            table = tables.get(port)
            if table is None:
                table, weight = [()] * self.radices[ci], self.weights[ci]
                for s, t in self.pairs[ci].get(port, ()):
                    step = (t - s) * weight
                    table[s] = tuple(sorted((*table[s], step))) if table[s] else (step,)
                tables[port] = table
            parts.append((ci, table))
        parts.sort()  # by component index: a rule has one port per component
        if len(parts) == 1:
            fans = {len(steps) for steps in table if steps}
            if len(fans) == 1:
                self.fixed[k] = (ci, table, fans.pop())
        rule = self.rules[k] = a.name, tuple(parts)
        return rule

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

    def successors(
        self, code: int, q: tuple[int, ...], names: GlobalState | None = None
    ) -> list[tuple[str, int]] | list[tuple[str, GlobalState]]:
        """All (interaction name, successor) pairs of q, whose code is
        `code`, in canonical order: by name, then as `fire` yields their
        steps.  A successor is its code, or, given q's names, its names as
        `renamed` reads them."""
        out: list = []
        rules, fire, renamed = self.rules, self.fire, self.renamed
        for k in self.enabled(q):
            name, parts = rules[k] or self.rule(k)
            for step in fire(q, parts):
                succ = code + step
                out.append((name, succ if names is None else renamed(names, succ, parts)))
        return out

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
        limit = DEFAULT_MAX_STATES if limit is None else bound(limit, "max_states")
        start = self.initial_code
        seen: dict[int, int | None] = {start: None}
        if matches is not None and matches(self.initial):
            return seen, 0, False, start
        rules, rule, rows, fire, moved = self.rules, self.rule, self.rows, self.fire, self.moved
        full, still, fixed = self.full, self.still, self.fixed
        n = len(rules)
        # enabledness mask -> (the transitions of its enabled still and
        # fixed rules, enabled moving rules in name order as (index, parts,
        # component index, table), where the table is a fixed rule's own and
        # None for a rule the search fires and counts by its steps)
        splits: dict[int, tuple[int, list[tuple[int, Parts, int, list | None]]]] = {}
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
                    counted = (mask & still).bit_count()
                    moving = []
                    for k in _set_bits(mask & ~still):
                        parts = (rules[k] or rule(k))[1]
                        ci, table, fan = fixed.get(k, (0, None, 0))
                        counted += fan
                        moving.append((k, parts, ci, table))
                    split = splits[mask] = (counted, moving)
                counted, moving = split
                transitions += counted
                for k, parts, ci, table in moving:
                    if table is None:
                        steps = fire(q, parts)
                        transitions += len(steps)
                    else:  # a fixed rule's steps are its table entry
                        steps = table[q[ci]]
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
                            # the still and fixed rules are already counted
                            for later, others, _, own in moving:
                                if later > k and own is None:
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


def _record_of(eng: Engine, q: GlobalState) -> Record:
    """The record `(q, successors, firsts)` of a global state: its named
    successors, as `Engine.successors` lists them, and the first successor
    under each enabled name.  A tuple's record replaces the engine's whole
    (see `Engine`); a list's is never kept."""
    record = eng._record
    if record[0] is not q:
        succs = eng.successors(*eng.pack(q), q)
        # reversed, so each name keeps its first successor
        record = q, succs, dict(reversed(succs))
        if type(q) is tuple:
            eng._record = record
    return record


def enabled_interactions(sys: InteractionSystem, q: GlobalState) -> frozenset[str]:
    """Names of interactions whose every participant enables its port in q:
    those with a successor, since an enabled one always has one."""
    return frozenset(_record_of(compile_system(sys), q)[2])


def step(sys: InteractionSystem, q: GlobalState, interaction: str) -> GlobalState:
    """Fire one interaction: its first successor in canonical order, so
    participants move along their local transition (lowest target-state
    index when the local relation is nondeterministic) and everyone else
    keeps its state.  Raises on an unknown name, or when the interaction is
    disabled, naming the blocking components."""
    eng = compile_system(sys)
    firsts = _record_of(eng, q)[2]
    try:
        return firsts[interaction]
    except (KeyError, TypeError):  # unknown, unhashable or disabled
        pass
    parts = eng.parts(interaction)
    _, packed = eng.pack(q)
    blockers = [
        eng.components[ci] for ci, table in parts if not eng.fire(packed, ((ci, table),))
    ]
    raise ModelError(f"interaction disabled: {interaction} blocked by {', '.join(blockers)}")


def successors(
    sys: InteractionSystem, q: GlobalState
) -> list[tuple[str, GlobalState]]:
    """All global transitions out of q, including every resolution of local
    nondeterminism, in canonical order: by interaction name, then by
    successor (local state indices, in component order).  Each successor
    is q with its participants' names read off its code."""
    return _record_of(compile_system(sys), q)[1].copy()


def explore(sys: InteractionSystem, max_states: int | None = None) -> ReachableSet:
    """Breadth-first fixpoint from the global initial state.  When
    `max_states` (default 1,000,000) is hit, discovery stops and the
    completion flag is False; a bound that is not an integer, or is below
    1, is rejected.  The states are named by halves: each distinct low and
    high half of a code once."""
    eng = compile_system(sys)
    seen, transitions, truncated, _ = eng.search(max_states)
    return ReachableSet(
        states=eng.decode(seen),
        transitions=transitions,
        complete=not truncated,
    )


def resolve_predicate(
    sys: InteractionSystem, constraints: Mapping[str, str]
) -> StatePredicate:
    """Build a predicate against a system, rejecting unknown names.  It
    stays because the benchmark's ring-reach job calls it; ROADMAP item 14
    removes that caller and deletes it."""
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
    complete=False; a `max_states` that is not an integer, or is below 1,
    is rejected.  The result keeps the search's parent links for
    `linked_path`, which reads which state the search found each state
    from.
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
        if not isinstance(t, StatePredicate):
            raise ModelError(f"target member {t!r} is not a StatePredicate")
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
        result = ReachResult(False, None, len(parents), transitions, not truncated)
    else:
        trace: list[str] = []
        link = parents[hit]
        while link is not None:
            hit, k = divmod(link, len(eng.rules))
            trace.append(eng.ordered[k].name)
            link = parents[hit]
        trace.reverse()
        result = ReachResult(True, trace, len(parents), transitions, True)
    result._links = parents
    return result


def linked_path(
    reach: ReachResult,
    eng: Engine,
    moves: Iterable[tuple[int, int | None, int, int | None]],
) -> tuple[int, tuple[int, ...]] | None:
    """The code and digits of the state that `moves` lead to from the
    initial state, when the search behind `reach` (an `is_reachable` result
    on `eng`'s system) first found each state on the way from the one
    before it; None otherwise.  A move `(a, digit_a, b, digit_b)` gives two
    distinct components their new digits, and only those move the code.  A
    digit of None, or a `reach` that keeps no links, gives None."""
    links = getattr(reach, "_links", None)
    if links is None:
        return None
    code, q = eng.initial_code, list(eng.initial)
    weights, n = eng.weights, len(eng.rules)
    for a, digit_a, b, digit_b in moves:
        if digit_a is None or digit_b is None:
            return None
        succ = code + (digit_a - q[a]) * weights[a] + (digit_b - q[b]) * weights[b]
        q[a], q[b] = digit_a, digit_b
        link = links.get(succ)
        if link is None or link // n != code:
            return None
        code = succ
    return code, tuple(q)


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
