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
from dataclasses import dataclass, replace
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
    nonempty with at most one port per component; `canonicalize` sorts the
    ports by component and port name."""

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
    `repr` ignore them)."""

    model: InteractionModel
    behaviors: Mapping[str, LocalBehavior]

    def __post_init__(self) -> None:
        object.__setattr__(self, "behaviors", MappingProxyType(dict(self.behaviors)))

    def __reduce__(self):
        # as InteractionModel's; a copy starts unvalidated and without an engine
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


def refuse_untyped(value: InteractionModel | InteractionSystem, doing: str) -> None:
    """Raise `ModelError("cannot <doing>: ...")` naming the first interaction
    port entry that is not a `PortId`, else the first name that is not a
    string, from the one list of a model's names (components, port-family
    keys, port names, interaction names, `PortId` fields) and, for a system,
    then its behavior keys, states, initials and transition fields."""
    im = value if isinstance(value, InteractionModel) else value.model
    for name, p in _non_port_ids(im):
        raise ModelError(
            f"cannot {doing}: interaction {name!r} lists {p!r}, which is not a PortId"
        )
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
    refuse_non_strings(names, doing)


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


def _model_rules(im: InteractionModel) -> ValidationReport:
    """The findings of every model rule but typing, on a typed model."""
    report = ValidationReport()
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
            if p.component not in seen_components:
                report.add(
                    "unknown-component-ref",
                    f"interaction {a.name} references unknown component {p.component}",
                )
            elif p not in declared:
                report.add(
                    "unknown-port-ref",
                    f"interaction {a.name} references unknown port {p}",
                )
            else:
                used.add(p)
        if len({p.component for p in a.ports}) < len(a.ports):
            for c, count in Counter(p.component for p in a.ports).items():
                if count > 1:
                    report.add(
                        "multi-port-component",
                        f"interaction {a.name} has two ports of one component ({c})",
                    )

        key = a.port_set()
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

    A clean verdict is remembered on the system object, as a private
    attribute outside the dataclass fields, so every later call on that
    object returns a fresh empty report without checking again.  Systems
    are immutable, so the verdict can never go stale.  An invalid system is
    never remembered: every call reports all of its findings again."""
    if getattr(sys, "_validated", False):
        return ValidationReport()
    im = sys.model
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

    for c in im.components:
        b = sys.behaviors.get(c)
        if b is None:
            report.add(
                "behavior-component-mismatch", f"component {c} has no behavior"
            )
            continue

        odd = non_strings(b.states)
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

        ports = set(im.ports.get(c, ()))
        if b.initial not in states:
            report.add(
                "missing-initial",
                f"component {c}: missing initial state {b.initial}",
            )
        # the rows are sorted for the messages only, when some row is bad
        for src, port, dst in b.transitions:
            if src not in states or dst not in states or port not in ports:
                break
        else:
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

    if report.ok:
        object.__setattr__(sys, "_validated", True)
    return report


def canonicalize(im: InteractionModel) -> InteractionModel:
    """Sort components, port families, interactions (by name, then ports)
    and each interaction's ports.  Nothing is merged or dropped, so an
    invalid model keeps every finding; names that cannot be sorted together
    raise `ModelError` through `refuse_untyped`."""
    try:
        components = tuple(sorted(im.components))
        # a family for a component the model lacks is kept too
        families = sorted({*components, *im.ports})
        ports = {c: tuple(sorted(im.ports.get(c, ()))) for c in families}
        interactions = sorted(
            (Interaction(a.name, tuple(sorted(a.ports))) for a in im.interactions),
            key=lambda a: (a.name, a.ports),
        )
    except TypeError:
        refuse_untyped(im, "canonicalize")
        raise
    return InteractionModel(components, ports, tuple(interactions))


def canonicalize_system(sys: InteractionSystem) -> InteractionSystem:
    """Canonical model plus behaviors with sorted state lists, sorted by
    component.  Every behavior given is kept, also one the model lacks.
    Names that cannot be sorted together raise `ModelError` through
    `refuse_untyped`."""
    try:
        behaviors = {
            c: replace(b, states=tuple(sorted(b.states)))
            for c, b in sorted(sys.behaviors.items())
        }
    except TypeError:
        refuse_untyped(sys, "canonicalize")
        raise
    return InteractionSystem(canonicalize(sys.model), behaviors)
