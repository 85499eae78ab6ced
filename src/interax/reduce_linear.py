"""Compile a linear-bounded machine and an input word into a line-shaped
interaction system whose global runs mirror the machine's computation.

One component per tape cell (0 through n+1).  A cell's local state pairs a
head marker with the cell's symbol: the marker is the machine state while the
head sits on that cell and a reserved off-cell marker otherwise.  Each delta
rule becomes, per feasible cell position, one two-party interaction between
the cell the head leaves and the cell it moves onto; a cell's port family
(in the model; its behavior has none) holds a rule's leave or arrive port
exactly when the cell is that side of one such interaction.
The initial cell states are the image of the machine's initial
configuration under `config_to_gstate`.

Size, for a machine with states P, tape alphabet Gamma and delta rules delta
(one per non-halt state and symbol) on a word of length n:
  |Q_i| = (|P|+1)*|Gamma|    every cell has the same local states
  |A_i| <= 2*|P|*|Gamma|     a leave and an arrive port per rule, fewer at
                             the two boundary cells
  |Int| = (n+1)*|delta|      one interaction per rule and neighbour pair, so
                             each pair (i, i+1) carries |delta| <= |P|*|Gamma|
The total grows with n: a head move changes both cells it joins, so each of
the n+1 boundaries needs interactions of its own.  The cells themselves come
in three kinds: cell 0, the inner cells and cell n+1 each share one port
family and one transition set, so a compilation builds three of each.

Naming grammar (fixed so serialized systems are diffable):
  local states    "<marker>,<symbol>"
  leave ports     "L:<state>:<symbol>"   (head moves away, rule argument pair)
  arrive ports    "A:<state>:<symbol>"   (head moves onto, same rule argument)
  interactions    "mv:<state>:<symbol>:<from-cell>:<to-cell>"
  halt extension  "halt:*" ports, states, and interactions
"""

from __future__ import annotations

from .errors import ModelError
from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
    _mark_typed,
)
from .semantics import GlobalState, StatePredicate
from .turing import DTM, Configuration, initial_config, validate_dtm

HALT_SND = "halt:snd"
HALT_RCV = "halt:rcv"
HALT_RELAY = "halt:relay"
HALT_WAIT = "halt:wait"
HALT_FWD = "halt:fwd"
HALT_TURN = "halt:turn"
HALT_DONE = "halt:done"


def head_marker(machine: DTM) -> str:
    """The off-cell marker, padded until it collides with no machine state."""
    marker = "s"
    while marker in machine.states:
        marker += "_"
    return marker


def cell_names(n: int) -> tuple[str, ...]:
    """Component names for cells 0..n+1, zero-padded to sort in cell order."""
    width = len(str(n + 1))
    return tuple(f"{i:0{width}d}" for i in range(n + 2))


def cell_state(marker: str, symbol: str) -> str:
    return f"{marker},{symbol}"


def cell_states(machine: DTM) -> dict[tuple[str, str], str]:
    """Every cell's local state names, keyed by (marker or machine state,
    symbol), in the order a cell lists them (the off-cell marker last)."""
    return {
        (p, g): cell_state(p, g)
        for p in (*machine.states, head_marker(machine))
        for g in machine.tape_alphabet
    }


def leave_port(state: str, symbol: str) -> str:
    return f"L:{state}:{symbol}"


def arrive_port(state: str, symbol: str) -> str:
    return f"A:{state}:{symbol}"


def compile_lsa(machine: DTM, word: str) -> InteractionSystem:
    """Build the cell system for `machine` on `word`, raising `ModelError`
    on a machine that fails `validate_dtm`.

    The result validates cleanly, classifies as a line, and steps in lockstep
    with the machine: mapping a non-halt configuration through
    `config_to_gstate` yields a global state with exactly one enabled
    interaction, whose successor is the image of the next configuration.
    Interactions and port families follow delta's insertion order, which
    neither `serialize_system` nor the engine (it orders rules by name) sees;
    each interaction lists its two ports in cell order.  It is marked typed.
    """
    validate_dtm(machine).raise_if_failed("machine")
    initial = config_to_gstate(machine, word, initial_config(machine, word))
    marker = head_marker(machine)
    all_states = tuple(cell_states(machine).values())
    if len(set(all_states)) != len(all_states):
        raise ModelError("ambiguous state naming: rendered cell states collide")

    cells = cell_names(len(word))
    # the port families and transition sets of cell 0, the inner cells and
    # cell n+1: a right move leaves every cell but n+1 and arrives at every
    # cell but 0, a left move the mirror image
    first, inner, last = [], [], []
    first_t, inner_t, last_t = set(), set(), set()
    neighbours = list(zip(cells, cells[1:]))
    interactions: list[Interaction] = []
    for (p, g), (p2, w, move) in machine.delta.items():
        leave, arrive = leave_port(p, g), arrive_port(p, g)
        left = (cell_state(p, g), leave, cell_state(marker, w))
        arrived = {
            (cell_state(marker, held), arrive, cell_state(p2, held))
            for held in machine.tape_alphabet
        }
        inner_t.add(left)
        inner_t |= arrived
        name = f"mv:{p}:{g}"
        # one interaction per neighbour pair (a, b), its ports in cell order
        if move == 1:
            first.append(leave)
            first_t.add(left)
            inner += (arrive, leave)
            last.append(arrive)
            last_t |= arrived
            interactions += [
                Interaction(f"{name}:{a}:{b}", (PortId(a, leave), PortId(b, arrive)))
                for a, b in neighbours
            ]
        else:
            first.append(arrive)
            first_t |= arrived
            inner += (leave, arrive)
            last.append(leave)
            last_t.add(left)
            interactions += [
                Interaction(f"{name}:{b}:{a}", (PortId(a, arrive), PortId(b, leave)))
                for a, b in neighbours
            ]

    kinds = [
        (tuple(first), frozenset(first_t)),
        *[(tuple(inner), frozenset(inner_t))] * (len(cells) - 2),
        (tuple(last), frozenset(last_t)),
    ]
    ports: dict[str, tuple[str, ...]] = {}
    behaviors: dict[str, LocalBehavior] = {}
    for cell, (family, transitions), q in zip(cells, kinds, initial):
        ports[cell] = family
        behaviors[cell] = LocalBehavior(all_states, transitions, q)
    model = InteractionModel(cells, ports, tuple(interactions))
    return _mark_typed(InteractionSystem(model, behaviors))


def accept_predicate(machine: DTM, word: str) -> list[StatePredicate]:
    """One predicate per (cell, tape symbol): that cell carries the accept
    marker with that symbol.  The disjunction is the compiled system's
    acceptance target."""
    preds = []
    for cell in cell_names(len(word)):
        for g in machine.tape_alphabet:
            preds.append(StatePredicate.of({cell: cell_state(machine.accept, g)}))
    return preds


def config_to_gstate(machine: DTM, word: str, config: Configuration) -> GlobalState:
    """The proof bijection: the head cell renders (state, symbol), every
    other cell the off-cell marker with its symbol."""
    n = len(word)
    if len(config.tape) != n + 2:
        raise ModelError(
            f"tape length mismatch: {len(config.tape)} cells for a word of length {n}"
        )
    marker = head_marker(machine)
    return tuple(
        cell_state(config.state if i == config.head else marker, g)
        for i, g in enumerate(config.tape)
    )


def extend_halt_propagation(
    machine: DTM, word: str
) -> tuple[InteractionSystem, GlobalState]:
    """Compile `machine` on `word` and add a halt cascade, so one
    distinguished global state (every cell done) is reachable exactly when
    some cell can reach the accept marker.

    Two fresh ports per cell drive two waves of two-party neighbor
    interactions: the accepting cell announces the halt toward cell 0, cell 0
    turns the wave around, and the return sweep moves every cell into the
    done state.  An idle cell cannot tell from which side a wave reaches it,
    so its receive transition branches nondeterministically; the wrong branch
    merely strands the run, it never unlocks the cascade ahead of acceptance.
    The extension only touches neighbor pairs, so the line shape survives.
    It is marked typed, as `compile_lsa`'s result is.
    """
    sys_m = compile_lsa(machine, word)
    cells = sys_m.model.components
    last = len(cells) - 1
    marker = head_marker(machine)
    accept_states = [cell_state(machine.accept, g) for g in machine.tape_alphabet]
    idle_states = [cell_state(marker, g) for g in machine.tape_alphabet]

    behaviors: dict[str, LocalBehavior] = {}
    for i, cell in enumerate(cells):
        b = sys_m.behaviors[cell]
        transitions = set(b.transitions)
        if i == 0:
            extra_states = (HALT_TURN, HALT_DONE)
            for s in idle_states:
                transitions.add((s, HALT_RCV, HALT_TURN))
            transitions.add((HALT_TURN, HALT_SND, HALT_DONE))
            for s in accept_states:
                transitions.add((s, HALT_SND, HALT_DONE))
        elif i == last:
            extra_states = (HALT_WAIT, HALT_DONE)
            for s in accept_states:
                transitions.add((s, HALT_SND, HALT_WAIT))
            for s in idle_states:
                transitions.add((s, HALT_RCV, HALT_DONE))
            transitions.add((HALT_WAIT, HALT_RCV, HALT_DONE))
        else:
            extra_states = (HALT_RELAY, HALT_WAIT, HALT_FWD, HALT_DONE)
            for s in accept_states:
                transitions.add((s, HALT_SND, HALT_WAIT))
            for s in idle_states:
                transitions.add((s, HALT_RCV, HALT_RELAY))
                transitions.add((s, HALT_RCV, HALT_FWD))
            transitions.add((HALT_RELAY, HALT_SND, HALT_WAIT))
            transitions.add((HALT_WAIT, HALT_RCV, HALT_FWD))
            transitions.add((HALT_FWD, HALT_SND, HALT_DONE))
        behaviors[cell] = LocalBehavior(
            states=(*b.states, *extra_states),
            transitions=frozenset(transitions),
            initial=b.initial,
        )

    ports = {cell: (*sys_m.model.ports[cell], HALT_SND, HALT_RCV) for cell in cells}
    interactions = list(sys_m.model.interactions)
    for a, b in zip(cells, cells[1:]):
        interactions += [
            Interaction(f"halt:left:{b}", (PortId(a, HALT_RCV), PortId(b, HALT_SND))),
            Interaction(f"halt:right:{b}", (PortId(a, HALT_SND), PortId(b, HALT_RCV))),
        ]
    model = InteractionModel(cells, ports, tuple(interactions))
    distinguished = tuple(HALT_DONE for _ in cells)
    return _mark_typed(InteractionSystem(model, behaviors)), distinguished
