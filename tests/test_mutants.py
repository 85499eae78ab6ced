"""Mutation adequacy of the Theorem 1 checker: `check_theorem1` must reject
every broken line system whose reachable behaviour differs from
`compile_lsa`'s.

Each mutant deletes one local transition from `compile_lsa`'s output on a
small machine and word; the checker sees it through `oracle.compile_lsa`,
the module global it calls.  A mutant is *equivalent* when no reachable
global transition of the unmutated system fires the deleted transition: it
then has the same reachable states and moves, so no reachability check can
reject it.  That is decided by `explore` and `successors` on the unmutated
system, never by the checker under test.  Over the words below there are
888 mutants: 58 are not equivalent, and the checker rejects exactly those.
(Mutation analysis: DeMillo, Lipton and Sayward, IEEE Computer 1978; the
equivalent-mutant problem is decidable here because the unmutated
system's reachable part is finite.)
"""

import pytest

from interax import (
    InteractionSystem,
    LocalBehavior,
    check_theorem1,
    compile_lsa,
    explore,
    successors,
)
from interax import oracle
from interax.fixtures import even_a, first_last

CASES = [
    *((even_a, w) for w in ("a", "aa", "aaa", "aaaa")),
    *((first_last, w) for w in ("01", "010", "0110")),
]


def fired(sys):
    """(component, local transition) for every local transition that some
    reachable global transition of `sys` fires."""
    components = sys.model.components
    index = {c: k for k, c in enumerate(components)}
    ports = {a.name: a.ports for a in sys.model.interactions}
    out = set()
    for q in explore(sys).states:
        for name, succ in successors(sys, q):
            for c, port in ports[name]:
                k = index[c]
                out.add((c, (q[k], port, succ[k])))
    return out


def mutants(sys):
    """(component, deleted transition, mutant) for every transition of
    every component, in a fixed order."""
    for c in sys.model.components:
        b = sys.behaviors[c]
        for t in sorted(b.transitions):
            cell = LocalBehavior(b.states, b.transitions - {t}, b.initial)
            yield c, t, InteractionSystem(sys.model, {**sys.behaviors, c: cell})


@pytest.mark.parametrize(
    "machine, word", CASES, ids=[f"{m.__name__}-{w}" for m, w in CASES]
)
def test_checker_rejects_exactly_the_non_equivalent_mutants(machine, word, monkeypatch):
    m = machine()
    sys_m = compile_lsa(m, word)
    live = fired(sys_m)
    assert check_theorem1(m, word).agree
    rejected, differing = [], []
    for c, t, mutant in mutants(sys_m):
        monkeypatch.setattr(oracle, "compile_lsa", lambda *_: mutant)
        if not check_theorem1(m, word).agree:
            rejected.append((c, t))
        if (c, t) in live:
            differing.append((c, t))
    assert differing != []
    assert rejected == differing


def test_mutant_counts():
    counts = [0, 0]
    for machine, word in CASES:
        sys_m = compile_lsa(machine(), word)
        live = fired(sys_m)
        for c, t, _ in mutants(sys_m):
            counts[(c, t) in live] += 1
    assert counts == [830, 58]
