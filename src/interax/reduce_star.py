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
    validate_system,
)
from .semantics import GlobalState

IDLE = "idle"
LINK = "link"
LINK_PORT = f"ok:{LINK}"


def _hub_name(model: InteractionModel) -> str:
    name = "cc"
    while name in model.components:
        name += "_"
    return name


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
    hub_ports: list[str] = []
    # the hub sides "ok:<comp>.<port>", "nok:..." and "fire:..." of each port
    sides: dict[PortId, tuple[str, str, str]] = {}

    for comp in model.components:
        b = sys.behaviors[comp]
        family = model.ports.get(comp, ())
        base = set(family)
        lifted = list(family) or [LINK_PORT]
        enabled = {(src, port) for src, port, _ in b.transitions}
        transitions = set(b.transitions)
        for port in family:
            ok, nok = f"ok:{port}", f"nok:{port}"
            for variant in (ok, nok):
                if variant in base:
                    raise ModelError(
                        f"port name collision: {comp}.{variant} already exists"
                    )
            lifted += (ok, nok)
            transitions.update(
                (state, ok if (state, port) in enabled else nok, state)
                for state in b.states
            )
            name = f"{comp}.{port}"
            hub_side = sides[PortId(comp, port)] = (
                f"ok:{name}",
                f"nok:{name}",
                f"fire:{name}",
            )
            for own, side in zip((ok, nok, port), hub_side):
                interactions.append(
                    Interaction(side, (PortId(comp, own), PortId(hub, side)))
                )
            hub_ports += hub_side
        if not family:
            side = f"ok:{comp}.{LINK}"
            interactions.append(
                Interaction(side, (PortId(comp, LINK_PORT), PortId(hub, side)))
            )
            hub_ports.append(side)
        ports[comp] = tuple(lifted)
        behaviors[comp] = LocalBehavior(
            states=b.states,
            transitions=frozenset(transitions),
            initial=b.initial,
        )

    states = [IDLE]
    hub_transitions: set[tuple[str, str, str]] = set()
    order = {c: k for k, c in enumerate(model.components)}
    for a in model.interactions:
        start = f"start:{a.name}"
        interactions.append(Interaction(start, (PortId(hub, start),)))
        hub_ports.append(start)
        walk = sorted(a.ports, key=lambda p: order[p.component])
        k = len(walk)
        chk = [f"chk:{a.name}:{m}" for m in range(1, k + 1)]
        fire = [f"fire:{a.name}:{m}" for m in range(1, k + 1)]
        states.extend(chk)
        states.extend(fire)
        hub_transitions.add((IDLE, start, chk[0]))
        for m, pid in enumerate(walk):
            ok, nok, fire_port = sides[pid]
            after_check = chk[m + 1] if m + 1 < k else fire[0]
            hub_transitions.add((chk[m], ok, after_check))
            hub_transitions.add((chk[m], nok, IDLE))
            after_fire = fire[m + 1] if m + 1 < k else IDLE
            hub_transitions.add((fire[m], fire_port, after_fire))

    ports[hub] = tuple(hub_ports)
    behaviors[hub] = LocalBehavior(
        states=tuple(states),
        transitions=frozenset(hub_transitions),
        initial=IDLE,
    )
    components = (*model.components, hub)
    new_model = InteractionModel(components, ports, tuple(interactions))
    return InteractionSystem(new_model, behaviors)


def project_state(sys: InteractionSystem, q: GlobalState) -> GlobalState | None:
    """The state of `sys` that q, a state of starify(sys), stands for: q
    without its hub coordinate when the hub is idle, None mid-protocol.
    It takes the source system; it checks only the length of q, so it never
    builds an engine."""
    expected = len(sys.model.components) + 1
    if len(q) != expected:
        raise ModelError(f"global state has {len(q)} entries, expected {expected}")
    return q[:-1] if q[-1] == IDLE else None
