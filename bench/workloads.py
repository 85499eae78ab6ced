"""The four workloads: seeded job lists, each job a run plus a check.

A job is the sequence of public library calls the matching CLI command
makes, from input JSON text to output JSON document.  `run(api)` performs
it through the call table `api` (so the tracer can wrap every call) and
returns what the check needs; `check(out)` compares that against an answer
computed without the program and returns a list of problems.

The shape of each job list (sizes, machines, accept/reject mix) is fixed;
the seed draws the details (targets, words, random systems, walk choices),
so every seed asks for about the same amount of work.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from generators import (
    LANGUAGES,
    palindrome_doc,
    ring_distance,
    ring_doc,
    ring_states,
    ring_transitions,
)
from tracing import product_states


@dataclass
class Job:
    label: str
    run: Callable
    check: Callable
    memory_sample: bool = False


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]
    rate_span: str  # the spans states_per_s divides states by
    notes: list[str] = field(default_factory=list)  # printed on `#` lines


def _text(doc: dict) -> str:
    return json.dumps(doc)


# ---------------------------------------------------------------- ring-reach

def _ring_reach_job(k: int, nondet: bool, target: dict[str, str], label: str) -> Job:
    system_text = _text(ring_doc(k, nondet))
    target_text = _text({"version": 1, "predicates": [target]})
    expected_len = sum(ring_distance(s, nondet) for s in target.values())

    def run(api):
        system = api.parse_system(system_text)
        raw = api.parse_predicates(target_text)
        predicates = [api.resolve_predicate(system, c) for c in raw]
        result = api.is_reachable(system, predicates)
        doc = {
            "version": 1,
            "kind": "reach",
            "reachable": result.reachable,
            "trace": result.trace,
            "states_explored": result.states_explored,
            "transitions_explored": result.transitions_explored,
            "complete": result.complete,
        }
        api.emit(doc)
        return doc

    def check(doc):
        problems = []
        if not (doc["reachable"] and doc["complete"]):
            problems.append("target not reached")
        elif len(doc["trace"]) != expected_len:
            problems.append(f"trace length {len(doc['trace'])} != {expected_len}")
        if doc["states_explored"] > ring_states(k):
            problems.append("explored more states than the ring has")
        return problems

    return Job(label, run, check)


def _ring_explore_job(k: int, nondet: bool, label: str) -> Job:
    system_text = _text(ring_doc(k, nondet))
    expected = (ring_states(k), ring_transitions(k, nondet))

    def run(api):
        result = api.explore(api.parse_system(system_text))
        doc = {
            "version": 1,
            "kind": "explore",
            "states": len(result.states),
            "transitions": result.transitions,
            "complete": result.complete,
        }
        api.emit(doc)
        return doc

    def check(doc):
        got = (doc["states"], doc["transitions"])
        return [] if got == expected and doc["complete"] else [f"{got} != {expected}"]

    return Job(label, run, check)


def _ring_mid_target(k: int, nondet: bool, rng: random.Random) -> dict[str, str]:
    """Constrain the last components so the shortest trace is half the
    deepest state's: k ticks on a deterministic ring, k // 2 otherwise.
    The seed picks q1 or q2 for each; taking a fixed run of components keeps
    the number of states searched nearly the same from seed to seed."""
    budget = k // 2 if nondet else k
    target = {}
    for i in reversed(range(k)):
        if budget == 0:
            break
        if nondet:
            state = rng.choice(("q1", "q2"))
        else:
            state = "q2" if budget >= 2 and rng.random() < 0.5 else "q1"
        target[f"c{i}"] = state
        budget -= ring_distance(state, nondet)
    return target


# (k, nondet, kind, copies): 17 jobs tick deterministically, 23 not.  By
# cost the 40 jobs fall in blocks of like jobs, so that the median (ranks
# 19 and 20) lies among the ring(7) det deep and explore jobs, and the p75
# tail (rank 29) among the eight ring(7) nondet deep ones: neither
# percentile compares jobs of different kinds, which the machine's speed
# swings affect differently.
RING_PLAN = [
    (7, True, "mid", 8),
    (7, False, "mid", 8), (8, True, "mid", 2),
    (7, False, "deep", 4), (7, False, "explore", 2),
    (7, True, "deep", 8),
    (7, True, "explore", 2),
    (8, False, "deep", 1), (8, True, "deep", 1), (8, False, "explore", 1),
    (9, False, "mid", 1), (10, True, "mid", 2),
]


def ring_reach(api, rng: random.Random) -> Workload:
    jobs = []
    for k, nondet, kind, copies in RING_PLAN:
        for _ in range(copies):
            label = f"ring({k},{'nondet' if nondet else 'det'}) {kind}"
            if kind == "explore":
                jobs.append(_ring_explore_job(k, nondet, label))
                continue
            if kind == "deep":
                target = {f"c{i}": "q2" for i in range(k)}
            else:
                target = _ring_mid_target(k, nondet, rng)
            jobs.append(_ring_reach_job(k, nondet, target, label))
    rng.shuffle(jobs)
    # tracemalloc slows a search about eightfold: sample the small rings
    for size in (7, 8):
        next(j for j in jobs if j.label.startswith(f"ring({size},")).memory_sample = True
    warmup = [_ring_reach_job(4, nondet, {"c0": "q2"}, "warm-up") for nondet in (False, True)]
    warmup.append(_ring_explore_job(4, True, "warm-up"))
    return Workload(jobs, warmup, "semantics.search")


# ----------------------------------------------------------------- line-thm1

_TM_RE = re.compile(r"tm=(\w+) ")
_REACH_RE = re.compile(r"reachable=(True|False)")


def _thm1_job(machine: str, machine_text: str, word: str) -> Job:
    accepts = LANGUAGES[machine](word)

    def run(api):
        dtm = api.parse_dtm(machine_text)
        shape = api.classify(api.compile_lsa(dtm, word).model)
        verdict = api.check_theorem1(dtm, word)
        doc = {"version": 1, "kind": "verdict", "agree": verdict.agree,
               "details": verdict.details}
        api.emit(doc)
        return doc, shape.linear

    def check(out):
        doc, linear = out
        problems = [] if linear else ["compiled system does not classify linear"]
        if not doc["agree"]:
            problems.append(f"disagree: {doc['details']}")
        tm = _TM_RE.search(doc["details"])
        reach = _REACH_RE.search(doc["details"])
        want = "accept" if accepts else "reject"
        if tm is None or tm.group(1) != want:
            problems.append(f"machine verdict is not {want}: {doc['details']}")
        if reach is None or reach.group(1) != str(accepts):
            problems.append(f"reachability is not {accepts}: {doc['details']}")
        return problems

    return Job(f"{machine}[{len(word)}] {'acc' if accepts else 'rej'}", run, check)


def _palindrome(n: int, rng: random.Random, accept: bool) -> str:
    half = [rng.choice("ab") for _ in range(n // 2)]
    middle = [rng.choice("ab")] if n % 2 else []
    word = half + middle + half[::-1]
    if not accept:
        # break the middle pair of the mirrored halves, so every rejecting
        # run of a given length does the same amount of work
        j = (n // 2) // 2
        word[n - 1 - j] = "b" if word[j] == "a" else "a"
    return "".join(word)


def line_thm1(api, rng: random.Random) -> Workload:
    texts = {
        "even_a": api.serialize_dtm(api.even_a()),
        "first_last": api.serialize_dtm(api.first_last()),
        "palindrome": _text(palindrome_doc()),
    }
    jobs = [_thm1_job("even_a", texts["even_a"], "a" * n) for n in range(4, 60, 5)]
    # Short first_last words and long palindromes put the median among
    # even_a runs and the p75 tail among palindrome runs, so neither
    # percentile compares runs of different machines.
    for k, n in enumerate(range(4, 16)):
        word = [rng.choice("01") for _ in range(n)]
        same = k % 2 == 0
        word[-1] = word[0] if same else ("1" if word[0] == "0" else "0")
        jobs.append(_thm1_job("first_last", texts["first_last"], "".join(word)))
    for n in range(12, 27, 2):
        for accept in (True, False):
            word = _palindrome(n, rng, accept)
            jobs.append(_thm1_job("palindrome", texts["palindrome"], word))
    rng.shuffle(jobs)
    for machine in LANGUAGES:
        next(j for j in jobs if j.label.startswith(machine)).memory_sample = True
    warmup = [_thm1_job(m, texts[m], w) for m, w in
              (("even_a", "aa"), ("first_last", "010"), ("palindrome", "abba"))]
    return Workload(jobs, warmup, "semantics.search")


# ----------------------------------------------------------------- star-thm2

def _thm2_job(system_text: str, label: str) -> Job:
    def run(api):
        system = api.parse_system(system_text)
        transformed = api.starify(system)
        shape = api.classify(transformed.model)
        api.serialize_system(transformed)
        verdict = api.check_theorem2(system)
        doc = {"version": 1, "kind": "verdict", "agree": verdict.agree,
               "details": verdict.details}
        api.emit(doc)
        return doc, shape.star_like

    def check(out):
        doc, star_like = out
        problems = [] if star_like else ["starified system does not classify star_like"]
        if not doc["agree"]:
            problems.append(f"disagree: {doc['details']}")
        return problems

    return Job(label, run, check)


# Random draws per bin of the starified product size: [lo, hi) -> count.
# Larger draws vary too much in cost from seed to seed; the named systems
# carry the heavy end.
STAR_BINS = {(1, 32): 200, (32, 64): 80, (64, 128): 32}
# Every seed makes this many draws, so set-up does the same work whichever
# seed it gets.  Seeds 1-60 filled the bins within 800 draws.
STAR_DRAWS = 1200
# Copies per pass.  The two smallest named systems stand for the typical
# small request; their 40 runs sit at the middle of the latency order, so
# the median does not hinge on which random systems the seed drew.
STAR_NAMED = {"pipeline": {2: 20, 3: 6, 4: 6, 5: 6},
              "client_server": {1: 20, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6}}


def _has_idle_component(system) -> bool:
    used = {p.component for a in system.model.interactions for p in a.ports}
    return len(used) < len(system.model.components)


def star_thm2(api, rng: random.Random) -> Workload:
    jobs = []
    for family, copies in STAR_NAMED.items():
        for size, count in copies.items():
            text = api.serialize_system(getattr(api, family)(size))
            jobs += [_thm2_job(text, f"{family}({size})") for _ in range(count)]
    wanted = dict(STAR_BINS)
    idle = not_star = 0
    for _ in range(STAR_DRAWS):
        params = api.GenParams(seed=rng.randrange(2**31))
        system = api.gen_random_system(params)
        transformed = api.starify(system)
        if _has_idle_component(system):
            # starify leaves such a component unconnected (README, known
            # gaps): left out of the job list, but counted on every run
            idle += 1
            not_star += not api.classify(transformed.model).star_like
            continue
        size = product_states(transformed)
        for (lo, hi), left in wanted.items():
            if left and lo <= size < hi:
                wanted[(lo, hi)] -= 1
                label = f"random(seed={params.seed},|P'|={size})"
                jobs.append(_thm2_job(api.serialize_system(system), label))
    if any(wanted.values()):
        raise RuntimeError(f"could not fill the star-thm2 bins: {wanted}")
    rng.shuffle(jobs)
    warmup = [_thm2_job(api.serialize_system(api.pipeline(2)), "warm-up")]
    note = (f"known defect: {not_star} of {idle} random draws with a component in no "
            f"interaction do not classify star_like after starify; such draws are left "
            f"out of the job list")
    return Workload(jobs, warmup, "oracle.brute_force", [note])


# ------------------------------------------------------------------ sim-walk

WALK_STEPS = 24


def walk(api, system, seed: int, steps: int) -> dict:
    """A seeded random walk through the per-state API: enabled_interactions,
    successors and step at every state, until `steps` or a deadlock."""
    rng = random.Random(seed)
    q = system.initial_state()
    visited, trace, observed = [q], [], []
    for _ in range(steps):
        enabled = api.enabled_interactions(system, q)
        if not enabled:
            break
        succs = api.successors(system, q)
        name = rng.choice(sorted(enabled))
        q = api.step(system, q, name)
        observed.append((enabled, succs, name, q))
        visited.append(q)
        trace.append(name)
    return {"visited": visited, "trace": trace, "observed": observed}


def _walk_job(system_text: str, reachable: set, seed: int, label: str) -> Job:
    def run(api):
        system = api.parse_system(system_text)
        path = api.walk(system, seed, WALK_STEPS)
        final = api.replay_trace(system, path["trace"])
        api.emit({"version": 1, "kind": "walk", "trace": path["trace"],
                  "final": list(path["visited"][-1])})
        return path, final

    def check(out):
        path, final = out
        problems = []
        if not all(q in reachable for q in path["visited"]):
            problems.append("walk left the brute-force reachable set")
        for enabled, succs, name, q in path["observed"]:
            if set(enabled) != {via for via, _ in succs}:
                problems.append(f"enabled {sorted(enabled)} != successor names")
            if (name, q) not in succs:
                problems.append(f"step({name}) result is not a successor")
        if path["visited"][-1] not in final:
            problems.append("replay_trace does not reach the walk's final state")
        return problems

    return Job(label, run, check)


WALKS_PER_SYSTEM = 5  # on each named system and ring
# Random systems get one walk each: their cost varies with the draw, and
# many draws average out where a few repeated ones would not.
RANDOM_WALK_SYSTEMS = 20


def _deadlocks(system, reachable: set) -> bool:
    """Does some reachable state enable no interaction?  Read straight off
    the local transition relations."""
    comps = system.model.components
    moves = [{(src, port) for src, port, _ in system.behaviors[c].transitions} for c in comps]
    order = {c: k for k, c in enumerate(comps)}
    parts = [[(order[p.component], p.port) for p in a.ports] for a in system.model.interactions]
    return any(
        not any(all((q[ci], port) in moves[ci] for ci, port in ps) for ps in parts)
        for q in reachable
    )


def sim_walk(api, rng: random.Random) -> Workload:
    texts = {f"client_server({r})": api.serialize_system(api.client_server(r))
             for r in range(2, 7)}
    texts.update({f"pipeline({n})": api.serialize_system(api.pipeline(n)) for n in range(2, 7)})
    # replay_trace on a nondeterministic ring tracks up to 3^k states, a
    # cost that swings with the walk, so those rings stay small
    for k, nondet in ((3, False), (4, False), (5, False), (6, False), (2, True), (3, True)):
        texts[f"ring({k},{'nondet' if nondet else 'det'})"] = _text(ring_doc(k, nondet))
    jobs = []
    for label, text in texts.items():
        reachable = api.brute_force_reachable(api.parse_system(text))
        for _ in range(WALKS_PER_SYSTEM):
            jobs.append(_walk_job(text, reachable, rng.randrange(2**31), label))
    # random systems on which every walk runs its full length
    while len(jobs) < len(texts) * WALKS_PER_SYSTEM + RANDOM_WALK_SYSTEMS:
        params = api.GenParams(seed=rng.randrange(2**31))
        system = api.gen_random_system(params)
        reachable = api.brute_force_reachable(system)
        if len(system.model.components) >= 3 and not _deadlocks(system, reachable):
            text = api.serialize_system(system)
            label = f"random(seed={params.seed})"
            jobs.append(_walk_job(text, reachable, rng.randrange(2**31), label))
    rng.shuffle(jobs)
    first = next(iter(texts.values()))
    warmup = [_walk_job(first, api.brute_force_reachable(api.parse_system(first)), 0, "warm-up")]
    return Workload(jobs, warmup, "bench.walk")


WORKLOADS = {
    "ring-reach": ring_reach,
    "line-thm1": line_thm1,
    "star-thm2": star_thm2,
    "sim-walk": sim_walk,
}
