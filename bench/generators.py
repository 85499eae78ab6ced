"""Benchmark-local input generators and their closed-form answers.

Everything here builds plain JSON documents (dicts), so the program under
test only ever sees generated input text.  The closed forms are the
independent answers the benchmark checks every job against; `selfcheck.py`
checks the generators themselves against those closed forms.
"""

from __future__ import annotations

RING_STATES = ("q0", "q1", "q2")


def ring_doc(k: int, nondet: bool) -> dict:
    """System document for ring(k): components c0..c{k-1}, each a 3-state
    tick cycle.  Interaction t_i is c_i's unary tick (q_j -> q_{j+1}, and
    also q_j -> q_{j+2} when `nondet`); s_i is a binary handshake between
    c_i and its ring neighbour c_{i+1} that both sides accept in every state
    without moving.  Every product state is reachable through ticks alone."""
    if k < 2:
        raise ValueError("a ring needs at least two components")
    components = []
    interactions = []
    for i in range(k):
        tick, left, right = f"tick_{i}", f"left_{i}", f"right_{i}"
        transitions = []
        for j, s in enumerate(RING_STATES):
            transitions.append({"from": s, "port": tick, "to": RING_STATES[(j + 1) % 3]})
            if nondet:
                transitions.append(
                    {"from": s, "port": tick, "to": RING_STATES[(j + 2) % 3]}
                )
            transitions.append({"from": s, "port": left, "to": s})
            transitions.append({"from": s, "port": right, "to": s})
        components.append(
            {
                "name": f"c{i}",
                "ports": [tick, left, right],
                "states": list(RING_STATES),
                "initial": "q0",
                "transitions": transitions,
            }
        )
        interactions.append({"name": f"t_{i}", "ports": [f"c{i}.{tick}"]})
        n = (i + 1) % k
        pair = sorted([(i, f"c{i}.{right}"), (n, f"c{n}.left_{n}")])
        interactions.append({"name": f"s_{i}", "ports": [p for _, p in pair]})
    return {"version": 1, "components": components, "interactions": interactions}


def ring_states(k: int) -> int:
    """Reachable global states of ring(k): the whole product."""
    return len(RING_STATES) ** k


def ring_transitions(k: int, nondet: bool) -> int:
    """Global transitions of ring(k): in every state each of the k ticks
    has one (two when nondeterministic) resolution and each of the k
    handshakes has one."""
    per_state = k * ((2 if nondet else 1) + 1)
    return per_state * ring_states(k)


def ring_distance(state: str, nondet: bool) -> int:
    """Fewest ticks that take one component from q0 to `state`.  Handshakes
    never move, so a shortest trace to a predicate is the sum of these over
    its constrained components."""
    j = RING_STATES.index(state)
    return min(j, 1) if nondet else j


def palindrome_doc() -> dict:
    """Machine document for a palindrome checker over {a, b}: erase the
    leftmost symbol, carry it to the right end, compare and erase there,
    walk back, repeat.  Runs in about n^2/2 steps and never leaves cells
    0..n+1."""
    delta = [
        ("start", "a", "carry_a", "_", 1),
        ("start", "b", "carry_b", "_", 1),
        ("start", "_", "accept", "_", -1),
        ("back", "a", "back", "a", -1),
        ("back", "b", "back", "b", -1),
        ("back", "_", "start", "_", 1),
    ]
    for c, other in (("a", "b"), ("b", "a")):
        delta += [
            (f"carry_{c}", "a", f"carry_{c}", "a", 1),
            (f"carry_{c}", "b", f"carry_{c}", "b", 1),
            (f"carry_{c}", "_", f"check_{c}", "_", -1),
            (f"check_{c}", c, "back", "_", -1),
            (f"check_{c}", other, "reject", other, -1),
            (f"check_{c}", "_", "accept", "_", -1),
        ]
    return {
        "version": 1,
        "tape_alphabet": ["_", "a", "b"],
        "input_alphabet": ["a", "b"],
        "blank": "_",
        "states": [
            "start", "carry_a", "carry_b", "check_a", "check_b", "back",
            "accept", "reject",
        ],
        "initial": "start",
        "accept": "accept",
        "reject": "reject",
        "delta": [
            {"state": p, "read": g, "next": p2, "write": w, "move": m}
            for p, g, p2, w, m in delta
        ],
    }


# Closed-form languages of the three machines the line workload runs.
LANGUAGES = {
    "even_a": lambda w: len(w) % 2 == 0,
    "first_last": lambda w: w == "" or w[0] == w[-1],
    "palindrome": lambda w: w == w[::-1],
}
