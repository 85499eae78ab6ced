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

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import ModelError
from .validation import ValidationReport, repeated


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
    frozen.  That lets `semantics.compile_system` validate a system and build
    its engine once per system object and keep the engine on the object, as
    a private attribute outside the dataclass fields (so `==` and `repr`
    ignore it)."""

    model: InteractionModel
    behaviors: Mapping[str, LocalBehavior]

    def __post_init__(self) -> None:
        object.__setattr__(self, "behaviors", MappingProxyType(dict(self.behaviors)))

    def __reduce__(self):
        # as InteractionModel's; a copy starts without the cached engine
        return type(self), (self.model, dict(self.behaviors))

    def initial_state(self) -> tuple[str, ...]:
        """The global initial state, one local initial per component."""
        return tuple(self.behaviors[c].initial for c in self.model.components)


def interaction(name: str, ports: Iterable[tuple[str, str]]) -> Interaction:
    """Convenience constructor accepting (component, port) pairs."""
    return Interaction(name, tuple(PortId(c, p) for c, p in ports))


def validate_model(im: InteractionModel) -> ValidationReport:
    """Check every interaction-model rule; findings are data, not failures."""
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
        for p in repeated(family):
            report.add("duplicate-port", f"component {c} declares port {p} twice")
        if "" in family:
            report.add("empty-name", f"component {c} declares an empty port name")

    declared = {
        PortId(c, p) for c in im.components for p in set(im.ports.get(c, ()))
    }
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

        by_component: dict[str, list[str]] = {}
        for p in a.ports:
            by_component.setdefault(p.component, []).append(p.port)
            if p.component not in seen_components:
                report.add(
                    "unknown-component-ref",
                    f"interaction {a.name} references unknown component {p.component}",
                )
            elif p.port not in im.ports.get(p.component, ()):
                report.add(
                    "unknown-port-ref",
                    f"interaction {a.name} references unknown port {p}",
                )
            else:
                used.add(p)
        for c, names in by_component.items():
            if len(names) > 1:
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
        report.add("uncovered-port", f"uncovered port {p}")

    return report


def validate_system(sys: InteractionSystem) -> ValidationReport:
    """Model findings plus behavior-level findings for each component."""
    report = validate_model(sys.model)
    im = sys.model

    for c in sorted(set(sys.behaviors) - set(im.components)):
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

        for s in repeated(b.states):
            report.add("duplicate-state", f"component {c} declares state {s} twice")
        if "*" in b.states:
            # predicate text reads "*" as any state, so no target can name it
            report.add("wildcard-state", f"component {c} declares the state name *")

        ports = set(im.ports.get(c, ()))
        states = set(b.states)
        if b.initial not in states:
            report.add(
                "missing-initial",
                f"component {c}: missing initial state {b.initial}",
            )
        for src, port, dst in sorted(b.transitions):
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

    return report


def enabled_ports(behavior: LocalBehavior, state: str) -> frozenset[str]:
    """Ports labeling at least one outgoing transition of `state`."""
    if state not in behavior.states:
        raise ModelError(f"no such state: {state!r}")
    return frozenset(port for src, port, _ in behavior.transitions if src == state)


def canonicalize(im: InteractionModel) -> InteractionModel:
    """Sort components, port families, interactions (by name, then ports)
    and each interaction's ports.  Nothing is merged or dropped, so an
    invalid model keeps every finding."""
    components = tuple(sorted(im.components))
    ports = {c: tuple(sorted(im.ports.get(c, ()))) for c in components}
    interactions = sorted(
        (Interaction(a.name, tuple(sorted(a.ports))) for a in im.interactions),
        key=lambda a: (a.name, a.ports),
    )
    return InteractionModel(components, ports, tuple(interactions))


def canonicalize_system(sys: InteractionSystem) -> InteractionSystem:
    """Canonical model plus behaviors with sorted state lists."""
    model = canonicalize(sys.model)
    behaviors = {
        c: replace(sys.behaviors[c], states=tuple(sorted(sys.behaviors[c].states)))
        for c in model.components
    }
    return InteractionSystem(model, behaviors)
