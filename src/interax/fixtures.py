"""Ready-made systems and machines used by tests, demos, and the docs.

`client_server(r)` is the hub-shaped system of one server and r clients;
`pipeline(n)` is the line-shaped message/acknowledge relay of n stations.
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


def client_server(r: int) -> InteractionSystem:
    """One server S and clients c1..cr; each client connects to and
    disconnects from the server in a two-party interaction."""
    if r < 1:
        raise ValueError("need at least one client")
    clients = [f"c{i}" for i in range(1, r + 1)]
    components = ("S", *clients)
    ports = {"S": ("connect", "disconnect")}
    behaviors = {
        "S": LocalBehavior(
            states=("free", "busy"),
            transitions=frozenset(
                {("free", "connect", "busy"), ("busy", "disconnect", "free")}
            ),
            initial="free",
        )
    }
    interactions = []
    for i, c in enumerate(clients, start=1):
        ports[c] = (f"connect_{i}", f"disconnect_{i}")
        behaviors[c] = LocalBehavior(
            states=("idle", "connected"),
            transitions=frozenset(
                {
                    ("idle", f"connect_{i}", "connected"),
                    ("connected", f"disconnect_{i}", "idle"),
                }
            ),
            initial="idle",
        )
        interactions.append(
            Interaction(
                f"connect_S_{c}",
                (PortId("S", "connect"), PortId(c, f"connect_{i}")),
            )
        )
        interactions.append(
            Interaction(
                f"disconnect_S_{c}",
                (PortId("S", "disconnect"), PortId(c, f"disconnect_{i}")),
            )
        )
    model = InteractionModel(components, ports, tuple(interactions))
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
            ports[s] = (f"send_m_{i}", f"rec_a_{i}")
            behaviors[s] = LocalBehavior(
                states=("ready", "waiting"),
                transitions=frozenset(
                    {
                        ("ready", f"send_m_{i}", "waiting"),
                        ("waiting", f"rec_a_{i}", "ready"),
                    }
                ),
                initial="ready",
            )
        elif i == n:
            ports[s] = (f"rec_m_{i}", f"send_a_{i}")
            behaviors[s] = LocalBehavior(
                states=("idle", "replying"),
                transitions=frozenset(
                    {
                        ("idle", f"rec_m_{i}", "replying"),
                        ("replying", f"send_a_{i}", "idle"),
                    }
                ),
                initial="idle",
            )
        else:
            ports[s] = (f"rec_m_{i}", f"send_m_{i}", f"rec_a_{i}", f"send_a_{i}")
            behaviors[s] = LocalBehavior(
                states=("idle", "holding", "passed", "acked"),
                transitions=frozenset(
                    {
                        ("idle", f"rec_m_{i}", "holding"),
                        ("holding", f"send_m_{i}", "passed"),
                        ("passed", f"rec_a_{i}", "acked"),
                        ("acked", f"send_a_{i}", "idle"),
                    }
                ),
                initial="idle",
            )
    interactions = []
    for i in range(1, n):
        interactions.append(
            Interaction(
                f"send_message_{i}",
                (
                    PortId(f"s{i}", f"send_m_{i}"),
                    PortId(f"s{i + 1}", f"rec_m_{i + 1}"),
                ),
            )
        )
    for i in range(2, n + 1):
        interactions.append(
            Interaction(
                f"send_acknowledge_{i}",
                (
                    PortId(f"s{i - 1}", f"rec_a_{i - 1}"),
                    PortId(f"s{i}", f"send_a_{i}"),
                ),
            )
        )
    model = InteractionModel(tuple(stations), ports, tuple(interactions))
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
