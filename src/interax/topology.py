"""Interaction graphs and the star/line communication-shape classifier.

The interaction graph has one node per component and an undirected edge
between two components whenever some interaction contains ports of both.
Classification looks only at the model; behaviors play no role.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import InteractionModel, refuse_untyped
from .validation import refuse_non_strings


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected graph: sorted node list, sorted tuple of sorted edge pairs."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class TopologyClass:
    star_like: bool
    linear: bool


def interaction_graph(im: InteractionModel) -> InteractionGraph:
    """Build the communication graph; isolated components are kept as nodes.
    Its edges are the ordered pairs of distinct components `u < v` within
    each interaction, collected in one pass over every interaction's ports.
    Names that cannot be sorted together, or a port entry that is not a
    `PortId`, raise `ModelError` through `refuse_untyped`."""
    try:
        nodes = tuple(sorted(set(im.components)))
        edges = {
            (u, v)
            for a in im.interactions
            for p in a.ports
            for q in a.ports
            if (u := p.component) != (v := q.component) and u < v
        }
        return InteractionGraph(nodes, tuple(sorted(edges)))
    except (TypeError, AttributeError):
        refuse_untyped(im, "build the interaction graph")
        raise


def _connected(adjacency: dict[str, set[str]]) -> bool:
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adjacency)


def classify(im: InteractionModel) -> TopologyClass:
    """Star: some hub has degree n-1 and every other node degree 1 (n=1 and
    the two-component single-edge case both qualify).  Line: connected,
    exactly two nodes of degree 1, all others degree 2 (needs n >= 2)."""
    g = interaction_graph(im)
    n = len(g.nodes)
    adjacency: dict[str, set[str]] = {v: set() for v in g.nodes}
    for a, b in g.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    deg = {v: len(adjacency[v]) for v in g.nodes}

    star_like = any(
        deg[hub] == n - 1 and all(deg[v] == 1 for v in g.nodes if v != hub)
        for hub in g.nodes
    )
    ones = sum(1 for v in g.nodes if deg[v] == 1)
    twos = sum(1 for v in g.nodes if deg[v] == 2)
    linear = ones == 2 and ones + twos == n and _connected(adjacency)
    return TopologyClass(star_like, linear)


def export_dot(g: InteractionGraph) -> str:
    """Byte-stable DOT document for the (undirected) interaction graph;
    a name that is not a string raises `ModelError`."""
    refuse_non_strings(itertools.chain(g.nodes, *g.edges), "export DOT")

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph interaction {"]
    lines.extend(f"  {quote(v)};" for v in g.nodes)
    lines.extend(f"  {quote(a)} -- {quote(b)};" for a, b in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
