"""Spans recorded from outside the package.

The benchmark never edits `src/`.  Instead it swaps public functions for
timing wrappers, both in its own call table and in the module namespaces
where the package looks them up (for example `oracle.is_reachable`, which
`check_theorem1` calls by its global name).  A wrapper records one span per
call: name, start, end, parent span and job id, plus counts read off the
arguments and the result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from types import SimpleNamespace

# span fields, in list order
NAME, START, END, PARENT, JOB, COUNTS = range(6)


class Tracer:
    """Records spans for the wrappers it hands out.  Single-threaded: the
    stack of open spans gives every new span its parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.job: int | None = None
        self.memory = False

    def wrap(self, name, fn, count=None, memory=False):
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else None, self.job, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            watch = memory and self.memory
            if watch:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            if watch:
                span[COUNTS] = dict(span[COUNTS] or {})
                span[COUNTS]["bytes"] = tracemalloc.get_traced_memory()[1] - base
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span named "job"."""
        self.job = job_id
        try:
            return self.wrap("job", fn)(*args)
        finally:
            self.job = None

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for k, (name, start, end, parent, job, counts) in enumerate(self.spans):
                row = {"id": k, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "job": job}
                if counts:
                    row["counts"] = counts
                out.write(json.dumps(row) + "\n")


def _search_counts(args, result):
    if hasattr(result, "states_explored"):  # ReachResult
        return {"states": result.states_explored, "transitions": result.transitions_explored}
    return {"states": len(result.states), "transitions": result.transitions}  # ReachableSet


def product_states(system) -> int:
    """Size of the product of the components' state sets."""
    return math.prod(len(set(b.states)) for b in system.behaviors.values())


def _brute_force_counts(args, result):
    return {"states": len(result), "product": product_states(args[0])}


def _starify_counts(args, result):
    (hub,) = set(result.model.components) - set(args[0].model.components)
    return {"interactions": len(result.model.interactions),
            "hub_states": len(result.behaviors[hub].states)}


def _compile_counts(args, result):
    return {"interactions": len(result.model.interactions)}


def _run_tm_counts(args, result):
    return {"steps": result.steps}


def _walk_counts(args, result):
    return {"states": len(result["trace"])}


# Call-table entries the jobs use: attribute -> (span name, counts, probe).
# Probes are wrapped in untraced runs too: they time the searches that the
# states_per_s metric divides by, at one wrapper call per search.
API_SPANS = {
    "parse_system": ("formats.parse", None, False),
    "parse_dtm": ("formats.parse", None, False),
    "parse_predicates": ("formats.parse", None, False),
    "serialize_system": ("formats.emit", None, False),
    "emit": ("formats.emit", None, False),
    "resolve_predicate": ("semantics.resolve", None, False),
    "is_reachable": ("semantics.search", _search_counts, True),
    "explore": ("semantics.search", _search_counts, True),
    "enabled_interactions": ("semantics.enabled", None, False),
    "successors": ("semantics.successors", None, False),
    "step": ("semantics.step", None, False),
    "replay_trace": ("semantics.replay", None, False),
    "walk": ("bench.walk", _walk_counts, True),
    "classify": ("topology.classify", None, False),
    "compile_lsa": ("reduce_linear.compile", _compile_counts, False),
    "starify": ("reduce_star.starify", _starify_counts, False),
    "check_theorem1": ("oracle.thm1", None, False),
    "check_theorem2": ("oracle.thm2", None, False),
}

# Module globals the package itself calls: (module, attribute) -> same.
MODULE_SPANS = {
    ("semantics", "validate_system"): ("model.validate", None, False),
    ("formats", "validate_system"): ("model.validate", None, False),
    ("reduce_star", "validate_system"): ("model.validate", None, False),
    ("oracle", "run_tm"): ("turing.run", _run_tm_counts, False),
    ("oracle", "compile_lsa"): ("reduce_linear.compile", _compile_counts, False),
    ("oracle", "is_reachable"): ("semantics.search", _search_counts, True),
    ("oracle", "brute_force_reachable"): ("oracle.brute_force", _brute_force_counts, True),
    ("oracle", "starify"): ("reduce_star.starify", _starify_counts, False),
    ("oracle", "project_state"): ("reduce_star.project", None, False),
}


def instrument(tracer: Tracer, api: SimpleNamespace, modules: dict, probes_only: bool):
    """Wrap the call table in place and patch the module globals.  Returns
    a function that puts every original back."""
    sites = [(api, attr, spec) for attr, spec in API_SPANS.items()]
    sites += [(modules[mod], attr, spec) for (mod, attr), spec in MODULE_SPANS.items()]
    undo = []
    for target, attr, (name, count, probe) in sites:
        if probe or not probes_only:
            original = getattr(target, attr)
            memory = name == "semantics.search"
            setattr(target, attr, tracer.wrap(name, original, count, memory))
            undo.append((target, attr, original))

    def restore():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


def nesting_violations(spans: list[list]) -> int:
    """Spans that are not inside their parent, or that sit outside a job
    span, or whose job id differs from their parent's."""
    bad = 0
    for span in spans:
        parent = span[PARENT]
        if parent is None:
            bad += span[NAME] != "job"
            continue
        p = spans[parent]
        if not (p[START] <= span[START] <= span[END] <= p[END]) or p[JOB] != span[JOB]:
            bad += 1
    return bad


def self_times(spans: list[list]) -> dict[str, int]:
    """Total self time in ns per span name: a span's duration minus the
    durations of its direct children (single-threaded, so they never
    overlap)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: dict[str, int] = {}
    for k, span in enumerate(spans):
        out[span[NAME]] = out.get(span[NAME], 0) + (span[END] - span[START]) - child_ns[k]
    return out
