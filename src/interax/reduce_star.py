"""Transform any interaction system into a hub-and-spokes system.

A fresh control component becomes the hub; every original component talks
only to it.  Each original interaction is simulated in two phases driven by
the hub: a check walk asking every participant whether its port is enabled
(components answer through ok/not-ok self-loops that never change their
state; any not-ok aborts back to the hub's idle state), then a fire walk
performing each port in order.  Reachability is preserved up to the hub
coordinate: projecting the hub-idle states of the transformed system onto
the original components yields exactly the original reachable set.

`starify` builds the result in one walk over the components: every port
yields its ok/not-ok/fire interactions with the hub, and the hub's ports are
exactly the hub sides of the interactions it makes.  Each port family goes
into the result's model only; a behavior is `(states, transitions, initial)`.

A component in no interaction (in a valid system: one with no ports) is
linked to the hub by a single interaction over two fresh ports, the ok
variants of a virtual port "link"; neither port has a transition, so the
link never fires and the reachable states stay the same.

Name mangling (fixed, collision-checked):
  component side   "ok:<port>", "nok:<port>" added next to each port
  hub ports        "ok:<comp>.<port>", "nok:<comp>.<port>",
                   "fire:<comp>.<port>", "start:<interaction>"
  hub states       "idle", "chk:<interaction>:<k>", "fire:<interaction>:<k>"
  link             component port "ok:link", hub port and interaction
                   "ok:<comp>.link", for a component in no interaction
"""

from __future__ import annotations

from .errors import ModelError
from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
    enabled_ports,
    validate_system,
)
from .semantics import GlobalState, compile_system

IDLE = "idle"
LINK = "link"


def _hub_name(model: InteractionModel) -> str:
    name = "cc"
    while name in model.components:
        name += "_"
    return name


def _ok(port: object) -> str:
    return f"ok:{port}"


def _nok(port: object) -> str:
    return f"nok:{port}"


def starify(sys: InteractionSystem) -> InteractionSystem:
    """Build the hub-and-spokes equivalent of `sys`.

    The hub is appended as the last component, so a global state of the
    result is a global state of `sys` plus one trailing hub coordinate.  Its
    ports are the hub sides of the interactions, in order.  Per original
    interaction with k ports the hub has one check-then-fire lobe of 2k
    states and 3k+1 transitions, all lobes sharing the idle state; every
    non-idle hub state enables the ports of one original port (its ok and
    not-ok variants in a check state, its fire port in a fire state).
    """
    validate_system(sys).raise_if_failed("system")
    model = sys.model
    hub = _hub_name(model)

    ports: dict[str, tuple[str, ...]] = {}
    behaviors: dict[str, LocalBehavior] = {}
    interactions: list[Interaction] = []

    def link(comp: str, port: str, hub_port: str) -> None:
        interactions.append(
            Interaction(hub_port, (PortId(comp, port), PortId(hub, hub_port)))
        )

    for comp in model.components:
        b = sys.behaviors[comp]
        family = model.ports.get(comp, ())
        base = set(family)
        lifted = list(family) or [_ok(LINK)]
        for port in family:
            for variant in (_ok(port), _nok(port)):
                if variant in base:
                    raise ModelError(
                        f"port name collision: {comp}.{variant} already exists"
                    )
                lifted.append(variant)
        ports[comp] = tuple(lifted)
        transitions = set(b.transitions)
        for state in b.states:
            can = enabled_ports(b, state)
            for port in family:
                loop = _ok(port) if port in can else _nok(port)
                transitions.add((state, loop, state))
        behaviors[comp] = LocalBehavior(
            states=b.states,
            transitions=frozenset(transitions),
            initial=b.initial,
        )

        if not family:
            link(comp, _ok(LINK), _ok(PortId(comp, LINK)))
        for port in family:
            pid = PortId(comp, port)
            link(comp, _ok(port), _ok(pid))
            link(comp, _nok(port), _nok(pid))
            link(comp, port, f"fire:{pid}")

    states = [IDLE]
    hub_transitions: set[tuple[str, str, str]] = set()
    order = {c: k for k, c in enumerate(model.components)}
    for a in model.interactions:
        start = f"start:{a.name}"
        interactions.append(Interaction(start, (PortId(hub, start),)))
        walk = sorted(a.ports, key=lambda p: order[p.component])
        k = len(walk)
        chk = [f"chk:{a.name}:{m}" for m in range(1, k + 1)]
        fire = [f"fire:{a.name}:{m}" for m in range(1, k + 1)]
        states.extend(chk)
        states.extend(fire)
        hub_transitions.add((IDLE, start, chk[0]))
        for m, pid in enumerate(walk):
            after_check = chk[m + 1] if m + 1 < k else fire[0]
            hub_transitions.add((chk[m], _ok(pid), after_check))
            hub_transitions.add((chk[m], _nok(pid), IDLE))
            after_fire = fire[m + 1] if m + 1 < k else IDLE
            hub_transitions.add((fire[m], f"fire:{pid}", after_fire))

    # the hub is the last party of every interaction built above
    ports[hub] = tuple(a.ports[-1].port for a in interactions)
    behaviors[hub] = LocalBehavior(
        states=tuple(states),
        transitions=frozenset(hub_transitions),
        initial=IDLE,
    )
    components = (*model.components, hub)
    new_model = InteractionModel(components, ports, tuple(interactions))
    return InteractionSystem(new_model, behaviors)


def lift_state(sys: InteractionSystem, q: GlobalState) -> GlobalState:
    """The state of starify(sys) matching q: q with an idle hub appended.
    Raises on a state `sys` does not have."""
    compile_system(sys).pack(q)
    return (*q, IDLE)


def _looks_like_hub(sys_prime: InteractionSystem, hub: str) -> bool:
    behavior = sys_prime.behaviors[hub]
    if behavior.initial != IDLE:
        return False
    if any(
        not s.startswith(("chk:", "fire:")) for s in behavior.states if s != IDLE
    ):
        return False
    return all(
        p.startswith(("ok:", "nok:", "fire:", "start:"))
        for p in sys_prime.model.ports.get(hub, ())
    )


def project_state(sys_prime: InteractionSystem, q: GlobalState) -> GlobalState | None:
    """Drop the hub coordinate when the hub is idle; None mid-protocol."""
    components = sys_prime.model.components
    if len(q) != len(components):
        raise ModelError(
            f"global state has {len(q)} entries, expected {len(components)}"
        )
    if not _looks_like_hub(sys_prime, components[-1]):
        raise ModelError("not a starified system: last component is not the hub")
    if q[-1] != IDLE:
        return None
    return q[:-1]
