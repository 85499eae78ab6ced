"""Ready-made systems and machines used by tests, demos, and the docs.

`client_server(r)` is the hub-shaped system of one server and r clients;
`pipeline(n)` is the line-shaped message/acknowledge relay of n stations.
Every component of both is a cycle through its ports: the k-th port of its
family moves its k-th state to the next, the last port leads back to the
first state, and the first state is initial.  `client_server(r)` reaches
r+1 global states over 2r transitions; `pipeline(n)` reaches 2(n-1) states
over 2(n-1) transitions.
`even_a` and `first_last` are small linear-bounded machines with obvious
closed-form languages, handy as independent ground truth.
"""

from __future__ import annotations

from .model import (
    Interaction,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    PortId,
)
from .turing import DTM


def _cycle(states: tuple[str, ...], ports: tuple[str, ...]) -> LocalBehavior:
    """Port k moves state k to state k+1; the last port leads back to the
    first state, which is initial."""
    following = states[1:] + states[:1]
    return LocalBehavior(states, frozenset(zip(states, ports, following)), states[0])


def client_server(r: int) -> InteractionSystem:
    """One server S and clients c1..cr; each client connects to and
    disconnects from the server in a two-party interaction."""
    if r < 1:
        raise ValueError("need at least one client")
    clients = [f"c{i}" for i in range(1, r + 1)]
    ports = {"S": ("connect", "disconnect")}
    ports.update(
        {c: (f"connect_{i}", f"disconnect_{i}") for i, c in enumerate(clients, start=1)}
    )
    behaviors = {"S": _cycle(("free", "busy"), ports["S"])}
    behaviors.update({c: _cycle(("idle", "connected"), ports[c]) for c in clients})
    interactions = tuple(
        Interaction(f"{kind}_S_{c}", (PortId("S", kind), PortId(c, port)))
        for c in clients
        for kind, port in zip(ports["S"], ports[c])
    )
    model = InteractionModel(("S", *clients), ports, interactions)
    return InteractionSystem(model, behaviors)


def pipeline(n: int) -> InteractionSystem:
    """Stations s1..sn pass a message up the line and the acknowledgement
    back down; neighbors share one interaction per direction."""
    if n < 2:
        raise ValueError("need at least two stations")
    stations = [f"s{i}" for i in range(1, n + 1)]
    ports: dict[str, tuple[str, ...]] = {}
    behaviors: dict[str, LocalBehavior] = {}
    for i, s in enumerate(stations, start=1):
        if i == 1:
            states, roles = ("ready", "waiting"), ("send_m", "rec_a")
        elif i == n:
            states, roles = ("idle", "replying"), ("rec_m", "send_a")
        else:
            states = ("idle", "holding", "passed", "acked")
            roles = ("rec_m", "send_m", "rec_a", "send_a")
        ports[s] = tuple(f"{role}_{i}" for role in roles)
        behaviors[s] = _cycle(states, ports[s])

    def hop(i: int, left: str, right: str) -> tuple[PortId, PortId]:
        # station i's `left` port with station i+1's `right` port
        return PortId(f"s{i}", f"{left}_{i}"), PortId(f"s{i + 1}", f"{right}_{i + 1}")

    interactions = tuple(
        Interaction(f"send_message_{i}", hop(i, "send_m", "rec_m")) for i in range(1, n)
    ) + tuple(
        Interaction(f"send_acknowledge_{i + 1}", hop(i, "rec_a", "send_a"))
        for i in range(1, n)
    )
    model = InteractionModel(tuple(stations), ports, interactions)
    return InteractionSystem(model, behaviors)


def even_a() -> DTM:
    """Accepts exactly the even-length words over {a}: the head walks right
    flipping parity and decides on the first blank.  Linear bounded."""
    return DTM(
        tape_alphabet=("a", "b"),
        input_alphabet=("a",),
        blank="b",
        states=("even", "odd", "accept", "reject"),
        initial="even",
        accept="accept",
        reject="reject",
        delta={
            ("even", "a"): ("odd", "a", 1),
            ("odd", "a"): ("even", "a", 1),
            ("even", "b"): ("accept", "b", -1),
            ("odd", "b"): ("reject", "b", -1),
        },
    )


def first_last() -> DTM:
    """Accepts the empty word and every word over {0,1} whose first and last
    symbols agree: remember the first symbol, walk to the trailing blank,
    step back, compare.  Linear bounded."""
    return DTM(
        tape_alphabet=("0", "1", "_"),
        input_alphabet=("0", "1"),
        blank="_",
        states=("start", "seen0", "seen1", "cmp0", "cmp1", "accept", "reject"),
        initial="start",
        accept="accept",
        reject="reject",
        delta={
            ("start", "0"): ("seen0", "0", 1),
            ("start", "1"): ("seen1", "1", 1),
            ("start", "_"): ("accept", "_", -1),
            ("seen0", "0"): ("seen0", "0", 1),
            ("seen0", "1"): ("seen0", "1", 1),
            ("seen0", "_"): ("cmp0", "_", -1),
            ("seen1", "0"): ("seen1", "0", 1),
            ("seen1", "1"): ("seen1", "1", 1),
            ("seen1", "_"): ("cmp1", "_", -1),
            ("cmp0", "0"): ("accept", "0", -1),
            ("cmp0", "1"): ("reject", "1", -1),
            ("cmp0", "_"): ("reject", "_", 1),
            ("cmp1", "0"): ("reject", "0", -1),
            ("cmp1", "1"): ("accept", "1", -1),
            ("cmp1", "_"): ("reject", "_", 1),
        },
    )
