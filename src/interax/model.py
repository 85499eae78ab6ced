"""Core model layer: components, ports, interactions, and local behaviors.

An interaction model declares components, one port family per component, and
the interaction set (the glue-code) wiring ports of different components
together.  An interaction system pairs a model with one finite labeled
transition system per component, (states, transitions, initial), whose
labels are that component's port family in the model.

Values are immutable: frozen containers whose mappings are read-only
copies.  They never self-validate; `validate_model` and `validate_system`
report every rule violation as a finding instead of raising, so broken inputs
can be inspected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import ModelError
from .validation import ValidationReport, non_strings, refuse_non_strings, repeated


class PortId(NamedTuple):
    """A port, globally identified by qualification with its component."""

    component: str
    port: str

    def __str__(self) -> str:
        return f"{self.component}.{self.port}"


@dataclass(frozen=True)
class Interaction:
    """A named set of ports, listed in any order.  Validation requires it
    nonempty with at most one port per component; a written document lists
    the ports sorted by component and port name."""

    name: str
    ports: tuple[PortId, ...]

    def port_set(self) -> frozenset[PortId]:
        return frozenset(self.ports)


@dataclass(frozen=True)
class InteractionModel:
    """Components, per-component port families, and the interaction set.

    `ports` is stored as a read-only copy of the mapping given."""

    components: tuple[str, ...]
    ports: Mapping[str, tuple[str, ...]]
    interactions: tuple[Interaction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", MappingProxyType(dict(self.ports)))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; its dict can
        return type(self), (self.components, dict(self.ports), self.interactions)


@dataclass(frozen=True)
class LocalBehavior:
    """Finite LTS of one component: (states, transitions, initial).

    Its labels are the component's port family in the model, which is the
    only place the family is stated.  `transitions` holds (source, port,
    target) triples; the relation may be nondeterministic.  State order is
    significant: it defines the index used by the deterministic tie-break in
    `semantics.step`.
    """

    states: tuple[str, ...]
    transitions: frozenset[tuple[str, str, str]]
    initial: str


@dataclass(frozen=True)
class InteractionSystem:
    """An interaction model plus one local behavior per component.

    A system never changes after construction: `behaviors` is stored as a
    read-only copy of the mapping given, and the model and behaviors are
    frozen.  That lets `validate_system` remember a clean verdict, and
    `semantics.compile_system` the engine it builds, once per system object,
    each as a private attribute outside the dataclass fields (so `==` and
    `repr` ignore them); a builder that makes every name a string marks its
    result the same way (`_mark_typed`)."""

    model: InteractionModel
    behaviors: Mapping[str, LocalBehavior]

    def __post_init__(self) -> None:
        object.__setattr__(self, "behaviors", MappingProxyType(dict(self.behaviors)))

    def __reduce__(self):
        # as InteractionModel's; a copy starts without a verdict, a mark or an engine
        return type(self), (self.model, dict(self.behaviors))

    def initial_state(self) -> tuple[str, ...]:
        """The global initial state, one local initial per component."""
        return tuple(self.behaviors[c].initial for c in self.model.components)


def _non_port_ids(im: InteractionModel) -> list[tuple[str, object]]:
    """(interaction name, entry) for each entry of an interaction's ports
    that is not a `PortId`, in order."""
    return [
        (a.name, p) for a in im.interactions for p in a.ports if not isinstance(p, PortId)
    ]


def _has(group: set, x: object) -> bool:
    """Whether `x` is in `group`; an unhashable `x` is no member's name."""
    try:
        return x in group
    except TypeError:
        return False


def _mark_typed(sys: InteractionSystem, like: InteractionSystem | None = None) -> InteractionSystem:
    """`sys`, marked as its builder made it: every interaction port entry a
    `PortId` and every name a string, all that `refuse_untyped` checks.  A
    builder that copies names from a system `like` passes on its mark."""
    if like is None or getattr(like, "_typed", False):
        object.__setattr__(sys, "_typed", True)
    return sys


def _names(value: InteractionModel | InteractionSystem) -> Iterable:
    """Every name of a model (components, port-family keys, port names,
    interaction names, `PortId` fields) and, for a system, then its behavior
    keys, states, initials and transition fields, in that order."""
    im = value if isinstance(value, InteractionModel) else value.model
    names = chain(
        im.components,
        im.ports,
        chain.from_iterable(im.ports.values()),
        (a.name for a in im.interactions),
        chain.from_iterable(chain.from_iterable(a.ports for a in im.interactions)),
    )
    if isinstance(value, InteractionSystem):
        behaviors = value.behaviors.values()
        names = chain(
            names,
            value.behaviors,
            chain.from_iterable(b.states for b in behaviors),
            (b.initial for b in behaviors),
            chain.from_iterable(chain.from_iterable(b.transitions for b in behaviors)),
        )
    return names


def refuse_untyped(value: InteractionModel | InteractionSystem, doing: str) -> None:
    """Raise `ModelError("cannot <doing>: ...")` naming the first interaction
    port entry that is not a `PortId`, else the first name that is not a
    string, in the order of `_names`.  A system marked by `_mark_typed`
    passes at once."""
    if getattr(value, "_typed", False):
        return
    im = value if isinstance(value, InteractionModel) else value.model
    for name, p in _non_port_ids(im):
        raise ModelError(
            f"cannot {doing}: interaction {name!r} lists {p!r}, which is not a PortId"
        )
    refuse_non_strings(_names(value), doing)


def _typing_findings(im: InteractionModel) -> ValidationReport:
    """The model's typing findings, in `refuse_untyped`'s order: each
    interaction port entry that is not a `PortId`, else each name that is not
    a string.  Every other rule reads those fields and compares or sorts
    those names, and no document can hold them, so they are reported alone."""
    report = ValidationReport()
    for name, p in _non_port_ids(im):
        report.add("non-port-id", f"interaction {name} lists {p!r}, which is not a PortId")
    if not report.ok:
        return report
    for kind, group in (
        ("component", im.components),
        ("port", chain.from_iterable(im.ports.values())),
        ("interaction", (a.name for a in im.interactions)),
    ):
        for x in non_strings(group):
            report.add("non-string-name", f"{kind} name {x!r} is not a string")
    return report


def validate_model(im: InteractionModel) -> ValidationReport:
    """Check every interaction-model rule; findings are data, not failures.
    Typing findings (an interaction port entry that is not a `PortId`, else a
    name that is not a string) are reported alone."""
    report = _typing_findings(im)
    return _model_rules(im) if report.ok else report


def _clean_in_bulk(im: InteractionModel) -> bool:
    """Whether the set-level tests of `_model_rules` all pass."""
    components, families, interactions = im.components, im.ports, im.interactions
    known = set(components)
    declared = {(c, p) for c in components for p in families.get(c, ())}
    refs = list(chain.from_iterable(a.ports for a in interactions))
    try:
        used = set(refs)
    except TypeError:  # an unhashable PortId field: reported one by one
        return False
    return (
        len(known) == len(components)
        and "" not in known
        and "." not in "".join(components)
        and known.issuperset(families)
        and len(declared) == sum(map(len, families.values()))
        and not any("" in family for family in families.values())
        and len({a.name for a in interactions}) == len(interactions)
        and used == declared
        and all(
            a.ports and len({p.component for p in a.ports}) == len(a.ports)
            for a in interactions
        )
        # when no port is in two interactions, no two port sets can be equal
        and (
            len(used) == len(refs)
            or len(set(map(Interaction.port_set, interactions))) == len(interactions)
        )
    )


def _model_rules(im: InteractionModel) -> ValidationReport:
    """The findings of every model rule but typing, on a typed model.

    Set-level tests over the whole model settle the clean case: component
    names are unique, non-empty and contain no "."; every port family
    belongs to a component and lists unique, non-empty ports; interaction
    names are unique; the ports the interactions reference are exactly the
    declared ones; each interaction has ports, all on distinct components;
    and no two interactions have the same port set.  Only when one of them
    fails are the components, families and interactions checked one by one,
    which yields the findings in their order."""
    report = ValidationReport()
    if _clean_in_bulk(im):
        return report
    seen_components: set[str] = set()
    for c in im.components:
        if c in seen_components:
            report.add("duplicate-component", f"component {c} declared twice")
        elif "." in c:
            # a reference "component.port" splits at its first "." and needs
            # both sides non-empty (the empty port name is checked below)
            report.add("dotted-component-name", f"component name {c} contains '.'")
        elif not c:
            report.add("empty-name", "a component name is empty")
        seen_components.add(c)

    for c in im.ports:
        if c not in seen_components:
            report.add(
                "unknown-component-ref", f"port family for unknown component {c}"
            )
    for c in im.components:
        family = im.ports.get(c, ())
        if len(set(family)) < len(family):
            for p in repeated(family):
                report.add("duplicate-port", f"component {c} declares port {p} twice")
        if "" in family:
            report.add("empty-name", f"component {c} declares an empty port name")

    # plain pairs: a PortId hashes and compares as its pair
    declared = {(c, p) for c in im.components for p in im.ports.get(c, ())}
    used: set[PortId] = set()
    seen_names: set[str] = set()
    seen_port_sets: dict[frozenset[PortId], str] = {}
    for a in im.interactions:
        if a.name in seen_names:
            report.add(
                "duplicate-interaction-name",
                f"interaction name {a.name} used more than once",
            )
        seen_names.add(a.name)

        if not a.ports:
            report.add("empty-interaction", f"interaction {a.name} has no ports")
            continue

        for p in a.ports:
            if not _has(seen_components, p.component):
                report.add(
                    "unknown-component-ref",
                    f"interaction {a.name} references unknown component {p.component}",
                )
            elif not _has(declared, p):
                report.add(
                    "unknown-port-ref",
                    f"interaction {a.name} references unknown port {p}",
                )
            else:
                used.add(p)
        try:
            key = a.port_set()
        except TypeError:  # an unhashable field, reported above: no set to compare
            continue
        if len({p.component for p in a.ports}) < len(a.ports):
            for c, count in Counter(p.component for p in a.ports).items():
                if count > 1:
                    report.add(
                        "multi-port-component",
                        f"interaction {a.name} has two ports of one component ({c})",
                    )

        if key in seen_port_sets:
            report.add(
                "duplicate-interaction",
                f"interactions {seen_port_sets[key]} and {a.name} have identical port sets",
            )
        else:
            seen_port_sets[key] = a.name

    for p in sorted(declared - used):
        report.add("uncovered-port", f"uncovered port {PortId(*p)}")

    return report


def validate_system(sys: InteractionSystem) -> ValidationReport:
    """Model findings plus behavior-level findings for each component.  The
    model's typing findings are reported alone, as `validate_model` does.

    A component whose states tuple, transition set and port family are the
    very objects (`is`) of a component found clean earlier in the same call,
    as the inner cells of a `compile_lsa` system share them, is checked for
    its initial state only: every other check would read the same objects.
    A system marked by `_mark_typed` is not scanned for typing findings.
    On any other system, one with no other finding is scanned last for a
    name that is not a string, in `refuse_untyped`'s order: any such name,
    be it a transition field, an initial, a key or a `PortId` field, equals
    a declared name, or another rule would have reported it.  An
    unhashable initial or `PortId` field is no declared name either: it is
    reported as unknown, like a hashable value that is not a string.

    A clean verdict is remembered on the system object, as a private
    attribute outside the dataclass fields, so every later call on that
    object returns a fresh empty report without checking again.  Systems
    are immutable, so the verdict can never go stale.  An invalid system is
    never remembered: every call reports all of its findings again."""
    if getattr(sys, "_validated", False):
        return ValidationReport()
    im = sys.model
    typed = getattr(sys, "_typed", False)
    if not typed:
        report = _typing_findings(im)
        if not report.ok:
            return report
    report = _model_rules(im)

    # key=str: a behavior key need not be a string
    for c in sorted(set(sys.behaviors) - set(im.components), key=str):
        report.add(
            "behavior-component-mismatch",
            f"behavior given for component {c} absent from the model",
        )

    # the state set of each (states, transitions, port family) found clean,
    # by the ids of those objects
    clean: dict[tuple[int, int, int], set] = {}
    for c in im.components:
        b = sys.behaviors.get(c)
        if b is None:
            report.add(
                "behavior-component-mismatch", f"component {c} has no behavior"
            )
            continue

        family = im.ports.get(c, ())
        shared = (id(b.states), id(b.transitions), id(family))
        states = clean.get(shared)
        if states is None:
            odd = [] if typed else non_strings(b.states)
            for s in odd:
                report.add(
                    "non-string-name", f"component {c}: state name {s!r} is not a string"
                )
            if odd:
                continue

            states = set(b.states)
            if len(states) < len(b.states):
                for s in repeated(b.states):
                    report.add("duplicate-state", f"component {c} declares state {s} twice")
            if "*" in states:
                # predicate text reads "*" as any state, so no target can name it
                report.add("wildcard-state", f"component {c} declares the state name *")

        if not _has(states, b.initial):
            report.add(
                "missing-initial",
                f"component {c}: missing initial state {b.initial}",
            )
        if shared in clean:
            continue
        ports = set(family)
        # the rows are sorted for the messages only, when some row is bad
        for src, port, dst in b.transitions:
            if src not in states or dst not in states or port not in ports:
                break
        else:
            if len(states) == len(b.states) and "*" not in states:
                clean[shared] = states
            continue
        try:
            rows = sorted(b.transitions)
        except TypeError:
            # a field that is not a string: no declared state equals it,
            # and a port equal to it was reported with the model
            rows = sorted(b.transitions, key=repr)
        for src, port, dst in rows:
            if src not in states or dst not in states:
                report.add(
                    "unknown-transition-state",
                    f"component {c}: transition {src} --{port}--> {dst} uses an unknown state",
                )
            if port not in ports:
                report.add(
                    "unknown-port",
                    f"component {c}: transition {src} --{port}--> {dst} uses unknown port {port}",
                )

    if report.ok and not typed:
        # a name that is not a string but hashes and compares equal to a
        # declared one passes every rule above: only here is it found
        for x in non_strings(_names(sys)):
            report.add("non-string-name", f"name {x!r} is not a string")
    if report.ok:
        object.__setattr__(sys, "_validated", True)
    return report
