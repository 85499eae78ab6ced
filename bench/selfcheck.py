"""Check the benchmark's own input generators against their closed forms.

    python3 bench/selfcheck.py

- ring(k), k = 2..6, deterministic and not: the brute-force oracle and
  `explore` both find 3^k states, `explore` counts the closed-form number
  of transitions, and the shortest trace to the deepest state has the
  closed-form length.
- The palindrome machine validates, and `run_tm` accepts exactly the
  palindromes among all words over {a, b} of length <= 8; even_a and
  first_last match their closed-form languages on the same lengths.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from generators import (
    LANGUAGES,
    palindrome_doc,
    ring_distance,
    ring_doc,
    ring_states,
    ring_transitions,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from interax import (  # noqa: E402
    Outcome,
    StatePredicate,
    brute_force_reachable,
    explore,
    is_reachable,
    run_tm,
    validate_dtm,
)
from interax.fixtures import even_a, first_last  # noqa: E402
from interax.formats import parse_dtm, parse_system  # noqa: E402


def check_rings() -> list[str]:
    problems = []
    for k in range(2, 7):
        for nondet in (False, True):
            system = parse_system(json.dumps(ring_doc(k, nondet)))
            name = f"ring({k}, nondet={nondet})"
            if len(brute_force_reachable(system)) != ring_states(k):
                problems.append(f"{name}: brute force disagrees with 3^{k}")
            found = explore(system)
            if (len(found.states), found.transitions) != (ring_states(k), ring_transitions(k, nondet)):
                problems.append(f"{name}: explore found {len(found.states)} states and "
                                f"{found.transitions} transitions")
            deepest = {c: "q2" for c in system.model.components}
            trace = is_reachable(system, StatePredicate.of(deepest)).trace
            if trace is None or len(trace) != k * ring_distance("q2", nondet):
                problems.append(f"{name}: shortest trace to all-q2 is {trace}")
    return problems


def check_machines() -> list[str]:
    problems = []
    machines = {
        "palindrome": parse_dtm(json.dumps(palindrome_doc())),
        "even_a": even_a(),
        "first_last": first_last(),
    }
    if not validate_dtm(machines["palindrome"]).ok:
        problems.append("palindrome machine does not validate")
    for name, machine in machines.items():
        for n in range(9):
            for letters in itertools.product(machine.input_alphabet, repeat=n):
                word = "".join(letters)
                accepted = run_tm(machine, word).outcome is Outcome.ACCEPT
                if accepted != LANGUAGES[name](word):
                    problems.append(f"{name} on {word!r}: accepted={accepted}")
    return problems


def main() -> int:
    problems = check_rings() + check_machines()
    for p in problems:
        print(p)
    print("generators: ok" if not problems else f"generators: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
