"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criterion 4 reads the paper's interaction bound |P|*|Gamma| per
neighbour pair of cells: every compiled interaction joins exactly two
adjacent cells, each pair (i, i+1) carries at most |P|*|Gamma| of them, and
the total is exactly (n+1)*|delta| for a word of length n, where |delta| is
the number of delta rules (non-halt states times tape symbols).  A total
bound that does not grow with n cannot hold for any line construction that
keeps the machine's lockstep: moving the head across a boundary changes both
cells beside it, so each of the n+1 boundaries needs interactions of its own
(even_a on 'aa' has 12 interactions against |P|*|Gamma| = 8, first_last on
'0' has 30 against 21).
"""

import json
import random
import time

from interax import (
    GenParams,
    brute_force_reachable,
    canonicalize_system,
    check_theorem1,
    check_theorem2,
    classify,
    compile_lsa,
    explore,
    gen_random_system,
    starify,
)
from interax.cli import run_cli
from interax.fixtures import client_server, even_a, first_last, pipeline
from interax.formats import parse_dtm, parse_system, serialize_dtm, serialize_system
from interax.oracle import ENGINE_EQUIVALENCE_SEEDS, STAR_EQUIVALENCE_SEEDS
from interax.turing import canonicalize_dtm

from test_formats import DTM_MUTATIONS, SYSTEM_MUTATIONS, system_fixtures


def _words(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + s for w in frontier for s in alphabet]
        out.extend(frontier)
    return out


MACHINES = (
    (even_a(), ("a",)),
    (first_last(), ("0", "1")),
)


def _report(number, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violation(s))"
    print(f"criterion {number} [{label}]: {status}")
    for f in failures[:5]:
        print(f"  - {f}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_theorem1_equivalence():
    failures = []
    t0 = time.monotonic()
    for machine, alphabet in MACHINES:
        for word in _words(alphabet, 6):
            verdict = check_theorem1(machine, word)
            if not verdict.agree:
                failures.append(f"{machine.initial} machine on {word!r}: {verdict.details}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 10s budget")
    _report(1, "machine acceptance == compiled-system reachability", failures)


def test_criterion_2_lockstep_isomorphism():
    # check_theorem1 replays every configuration and demands exactly one
    # enabled interaction matching the machine step; rerun and inspect the
    # reported lockstep depth for every word
    failures = []
    for machine, alphabet in MACHINES:
        for word in _words(alphabet, 6):
            verdict = check_theorem1(machine, word)
            if "lockstep held" not in verdict.details:
                failures.append(f"word {word!r}: {verdict.details}")
    _report(2, "exactly one enabled interaction per machine step", failures)


def test_criterion_3_theorem2_equivalence():
    failures = []
    t0 = time.monotonic()
    for seed in STAR_EQUIVALENCE_SEEDS:
        verdict = check_theorem2(gen_random_system(GenParams(seed=seed)))
        if not verdict.agree:
            failures.append(f"seed {seed}: {verdict.details}")
    for sys in (
        client_server(1),
        client_server(2),
        client_server(3),
        pipeline(2),
        pipeline(3),
        pipeline(4),
        pipeline(5),
    ):
        verdict = check_theorem2(sys)
        if not verdict.agree:
            failures.append(f"{sys.model.components}: {verdict.details}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    _report(3, "reachable set == hub-idle projection after starify", failures)


def test_criterion_4_linear_reduction_size_formulas():
    failures = []
    for machine, alphabet in MACHINES:
        p_count = len(machine.states)
        g_count = len(machine.tape_alphabet)
        halt = {machine.accept, machine.reject}
        rule_count = sum(1 for p in machine.states if p not in halt) * g_count
        for word in _words(alphabet, 6):
            sys_m = compile_lsa(machine, word)
            cells = sys_m.model.components
            position = {c: i for i, c in enumerate(cells)}
            per_pair = [0] * (len(cells) - 1)
            for a in sys_m.model.interactions:
                spots = sorted(position[p.component] for p in a.ports)
                if len(spots) != 2 or spots[1] != spots[0] + 1:
                    failures.append(
                        f"{a.name} spans cells {spots}, not one neighbour pair, on {word!r}"
                    )
                    continue
                per_pair[spots[0]] += 1
            for i, count in enumerate(per_pair):
                if count > p_count * g_count:
                    failures.append(
                        f"pair ({i}, {i + 1}) carries {count} > |P|*|Gamma|="
                        f"{p_count * g_count} interactions on {word!r}"
                    )
            n_int = len(sys_m.model.interactions)
            if n_int != (len(word) + 1) * rule_count:
                failures.append(
                    f"|Int|={n_int} != (n+1)*|delta|={(len(word) + 1) * rule_count}"
                    f" on {word!r}"
                )
            for c in sys_m.model.components:
                if len(sys_m.model.ports[c]) > 2 * p_count * g_count:
                    failures.append(f"|A_{c}| bound violated on {word!r}")
                if len(set(sys_m.behaviors[c].states)) != (p_count + 1) * g_count:
                    failures.append(f"|Q_{c}| equality violated on {word!r}")
    _report(4, "cell-construction size formulas", failures)


def test_criterion_5_star_reduction_size_formulas():
    failures = []
    fixtures = [
        client_server(1),
        client_server(2),
        client_server(3),
        pipeline(2),
        pipeline(3),
        pipeline(4),
        pipeline(5),
    ]
    for sys in fixtures:
        star = starify(sys)
        model, prime = sys.model, star.model
        label = f"{len(model.components)}-component fixture"
        total_ports = sum(len(model.ports[c]) for c in model.components)
        if len(prime.components) != len(model.components) + 1:
            failures.append(f"{label}: |K'| != |K|+1")
        if len(prime.interactions) != len(model.interactions) + 3 * total_ports:
            failures.append(f"{label}: |Int'| formula")
        for c in model.components:
            if len(prime.ports[c]) != 3 * len(model.ports[c]):
                failures.append(f"{label}: |A'_{c}| != 3|A_{c}|")
        hub = star.behaviors[prime.components[-1]]
        if len(hub.states) != 1 + sum(2 * len(a.ports) for a in model.interactions):
            failures.append(f"{label}: |Q_cc| formula")
        if len(hub.transitions) != sum(
            3 * len(a.ports) + 1 for a in model.interactions
        ):
            failures.append(f"{label}: |->_cc| formula")
    _report(5, "hub-construction size formulas (exact)", failures)


def test_criterion_6_topology_classification():
    failures = []
    for r in (2, 3, 5):
        if not classify(client_server(r).model).star_like:
            failures.append(f"client_server({r}) not star-like")
    for n in (3, 4, 6):
        if not classify(pipeline(n).model).linear:
            failures.append(f"pipeline({n}) not linear")
    for machine, alphabet in MACHINES:
        for word in _words(alphabet, 3):
            if not classify(compile_lsa(machine, word).model).linear:
                failures.append(f"compiled {word!r} not linear")
    for sys in (client_server(2), pipeline(3), pipeline(4)):
        if not classify(starify(sys).model).star_like:
            failures.append("starified fixture not star-like")
    _report(6, "topology classes of fixtures and reductions", failures)


def test_criterion_7_reachable_set_counts():
    failures = []
    if len(brute_force_reachable(client_server(2))) != 3:
        failures.append("client_server(2) reachable count != 3")
    for n in range(2, 7):
        got = len(brute_force_reachable(pipeline(n)))
        if got != 2 * (n - 1):
            failures.append(f"pipeline({n}) reachable count {got} != {2 * (n - 1)}")
    _report(7, "brute-force reachable counts", failures)


def test_criterion_8_engine_matches_oracle():
    failures = []
    t0 = time.monotonic()
    for seed in ENGINE_EQUIVALENCE_SEEDS:
        sys = gen_random_system(GenParams(seed=seed))
        if explore(sys).states != brute_force_reachable(sys):
            failures.append(f"seed {seed}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    _report(8, "explore == brute force on 200 seeded systems", failures)


def test_criterion_9_round_trip_and_fuzz():
    failures = []
    for sys in system_fixtures():
        if parse_system(serialize_system(sys)) != canonicalize_system(sys):
            failures.append("system round trip differs from canonicalize")
    for machine in (even_a(), first_last()):
        if parse_dtm(serialize_dtm(machine)) != canonicalize_dtm(machine):
            failures.append("machine round trip differs from canonicalize")

    system_texts = [serialize_system(s) for s in system_fixtures()]
    dtm_texts = [serialize_dtm(even_a()), serialize_dtm(first_last())]
    checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        if rng.random() < 0.7:
            text, mutate, parse = (
                rng.choice(system_texts),
                rng.choice(SYSTEM_MUTATIONS),
                parse_system,
            )
        else:
            text, mutate, parse = (
                rng.choice(dtm_texts),
                rng.choice(DTM_MUTATIONS),
                parse_dtm,
            )
        doc = json.loads(text)
        try:
            mutate(doc, rng)
        except LookupError:
            continue
        try:
            parse(json.dumps(doc))
        except (ValueError,):
            checked += 1
        else:
            failures.append(f"mutation seed {seed} silently accepted")
    if checked < 950:
        failures.append(f"only {checked} mutations exercised")
    _report(9, "round trips and 1000-document mutation fuzz", failures)


def test_acceptance_cli_spot_checks(tmp_path):
    # the CLI answers must equal the library answers used above
    sys_file = tmp_path / "cs3.json"
    sys_file.write_text(serialize_system(client_server(3)))
    dtm_file = tmp_path / "even_a.json"
    dtm_file.write_text(serialize_dtm(even_a()))
    assert run_cli(["classify", str(sys_file)]) == 0
    assert run_cli(["check-thm1", str(dtm_file), "--input", "aa"]) == 0
    assert run_cli(["check-thm2", str(sys_file)]) == 0
