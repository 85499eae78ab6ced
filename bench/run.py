"""interax benchmark runner.

    python3 bench/run.py --workload ring-reach --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` next to this directory, never from an installed copy.  One process
runs one workload as a single-threaded closed loop (one client, next job
only after the last one returned) over a seeded job list, repeating whole
passes over the list while the next pass still fits in `--seconds`.  Times
are scaled to a reference machine speed (see calibration.py).

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
times one untraced pass, then traced passes, then a tracemalloc sample,
and reports the per-layer metrics.  Every job's answer is checked; the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from types import SimpleNamespace

from calibration import Clock
from tracing import COUNTS, END, NAME, START, Tracer, instrument, nesting_violations, self_times
from workloads import WORKLOADS, walk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
TAIL_LEVELS = (50, 75, 90, 95, 99)


def _import_fresh() -> dict:
    """Import the package from SRC, dropping any copy imported before, so
    every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "interax" or m.startswith("interax.")]:
        del sys.modules[name]
    package = importlib.import_module("interax")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"interax imported from {package.__file__}, not from {SRC}")
    names = ("formats", "semantics", "oracle", "reduce_star", "fixtures")
    modules = {n: importlib.import_module(f"interax.{n}") for n in names}
    modules["interax"] = package
    return modules


def _call_table(modules: dict) -> SimpleNamespace:
    """The public calls the jobs make, looked up once so the tracer can swap
    them."""
    pkg, formats, fixtures = modules["interax"], modules["formats"], modules["fixtures"]
    api = SimpleNamespace(
        parse_system=formats.parse_system,
        parse_dtm=formats.parse_dtm,
        parse_predicates=formats.parse_predicates,
        serialize_system=formats.serialize_system,
        serialize_dtm=formats.serialize_dtm,
        # the CLI's output document: canonical JSON plus a newline
        emit=lambda doc: json.dumps(doc, sort_keys=True, indent=2) + "\n",
        even_a=fixtures.even_a,
        first_last=fixtures.first_last,
        client_server=fixtures.client_server,
        pipeline=fixtures.pipeline,
    )
    for name in (
        "resolve_predicate", "is_reachable", "explore", "enabled_interactions",
        "successors", "step", "replay_trace", "classify", "compile_lsa", "starify",
        "check_theorem1", "check_theorem2", "GenParams", "gen_random_system",
        "brute_force_reachable",
    ):
        setattr(api, name, getattr(pkg, name))
    api.walk = lambda system, seed, steps: walk(api, system, seed, steps)
    return api


def set_up(workload: str, seed: int):
    """Import, generate the inputs, and run the warm-up jobs."""
    modules = _import_fresh()
    api = _call_table(modules)
    work = WORKLOADS[workload](api, random.Random(seed))
    for job in work.warmup:
        problems = job.check(job.run(api))
        if problems:
            raise SystemExit(f"warm-up job failed: {problems}")
    return modules, api, work


class Loop:
    """Closed-loop passes over the job list.  For every job and pass it
    records the latency and the states and time of the job's spans named
    `rate_span` (the searches states_per_s divides), all times scaled to
    the reference speed."""

    def __init__(self, jobs, tracer: Tracer, rate_span: str, job_spans: bool,
                 clock: Clock) -> None:
        self.jobs = jobs
        self.tracer = tracer
        self.rate_span = rate_span
        self.job_spans = job_spans
        self.clock = clock
        self.latency_ns: list[list[float]] = [[] for _ in jobs]
        self.searched: list[list[tuple[int, float]]] = [[] for _ in jobs]
        self.pass_s: list[float] = []  # scaled
        self.raw_pass_s: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, api, seconds: float) -> None:
        """Whole passes while the next one is expected to end within
        `seconds`; at least one."""
        start = time.perf_counter()
        while True:
            self.one_pass(api)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.raw_pass_s) > seconds:
                return

    def one_pass(self, api) -> None:
        pass_start = time.perf_counter()
        measured = []
        for job in self.jobs:
            job_id = self.attempted
            self.attempted += 1
            mark = self.clock.mark()
            first_span = len(self.tracer.spans)
            t0 = time.perf_counter_ns()
            try:
                if self.job_spans:
                    out = self.tracer.run_job(job_id, job.run, api)
                else:
                    out = job.run(api)
            except Exception:  # a raised job is a failed job; keep running
                out = None
                problems = [f"raised:\n{traceback.format_exc()}"]
            elapsed_ns = time.perf_counter_ns() - t0
            # a search that raised has no counts and adds nothing to the rate
            rate = [s for s in self.tracer.spans[first_span:]
                    if s[NAME] == self.rate_span and s[COUNTS]]
            states = sum(s[COUNTS]["states"] for s in rate)
            measured.append((mark, elapsed_ns, states, sum(s[END] - s[START] for s in rate)))
            if not self.job_spans:
                del self.tracer.spans[first_span:]  # probes: keep memory flat
            if out is not None:
                problems = job.check(out)
            if problems:
                self.failed += 1
                print(f"job {job.label} failed: {'; '.join(problems)}", file=sys.stderr)
        self.clock.sample()
        self.raw_pass_s.append(time.perf_counter() - pass_start)
        total_ns = 0.0
        for i, (mark, elapsed_ns, states, search_ns) in enumerate(measured):
            factor = self.clock.scale(mark)
            self.factors.append(factor)
            self.latency_ns[i].append(elapsed_ns * factor)
            self.searched[i].append((states, search_ns * factor))
            total_ns += elapsed_ns * factor
        self.pass_s.append(total_ns / 1e9)


def tail_level(jobs: int) -> int:
    """The highest of TAIL_LEVELS with at least ten jobs beyond it."""
    return max(level for level in TAIL_LEVELS if jobs - -(-level * jobs // 100) >= 10)


def percentile(ordered: list[float], level: int) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[-(-level * len(ordered) // 100) - 1]


def end_to_end(loop: Loop, setup_s: list[float]) -> dict:
    """A job's latency is its median over the passes."""
    job_ms = sorted(statistics.median(ns) / 1e6 for ns in loop.latency_ns)
    level = tail_level(len(job_ms))
    searched = [(passes[0][0], statistics.median(ns for _, ns in passes))
                for passes in loop.searched]
    search_ns = sum(ns for _, ns in searched)
    print(f"# {len(job_ms)} jobs x {len(loop.pass_s)} passes; tail = p{level} of "
          f"{len(job_ms)} job latencies; raw median pass "
          f"{statistics.median(loop.raw_pass_s):.6f} s; median scale "
          f"{statistics.median(loop.factors):.4f}")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(job_ms) / 1e3, "s"),
        "verdict_p50_ms": (statistics.median(job_ms), "ms"),
        "verdict_tail_ms": (percentile(job_ms, level), "ms"),
        "states_per_s": (sum(st for st, _ in searched) / search_ns * 1e9 if search_ns else 0.0,
                         "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: Tracer, loop: Loop, memory: Tracer, overhead: float) -> dict:
    spans = traced.spans
    passes = len(loop.pass_s)
    scale = statistics.median(loop.factors) / 1e9  # ns to seconds at reference speed
    own = self_times(spans)
    counts: dict[tuple[str, str], int] = {}
    calls: dict[str, list[int]] = {}
    for s in spans:
        calls.setdefault(s[NAME], []).append(s[END] - s[START])
        for key, value in (s[COUNTS] or {}).items():
            counts[(s[NAME], key)] = counts.get((s[NAME], key), 0) + value

    def secs(name):  # self seconds per pass over the job list
        return (own.get(name, 0) * scale / passes, "s")

    def count(name, key):  # total count per pass
        return (counts.get((name, key), 0) / passes, "count")

    def call_us(name):  # mean duration of one call, children included
        durations = calls.get(name, [])
        return (sum(durations) / len(durations) * scale * 1e6 if durations else 0.0, "us")

    searched = counts.get(("semantics.search", "states"), 0)
    transitions = counts.get(("semantics.search", "transitions"), 0)
    searches = sum(1 for s in spans if s[NAME] == "semantics.search" and s[COUNTS])
    sampled = [s[COUNTS] for s in memory.spans if s[NAME] == "semantics.search" and s[COUNTS]]
    sampled_states = sum(c["states"] for c in sampled)
    return {
        "formats.parse_s": secs("formats.parse"),
        "formats.emit_s": secs("formats.emit"),
        "model.validate_s": secs("model.validate"),
        "topology.classify_s": secs("topology.classify"),
        "semantics.search_s": secs("semantics.search"),
        "semantics.search_states": count("semantics.search", "states"),
        "semantics.search_transitions": count("semantics.search", "transitions"),
        "semantics.new_state_ratio": (
            (searched - searches) / transitions if transitions else 0.0, "ratio"),
        "semantics.bytes_per_state": (
            sum(c["bytes"] for c in sampled) / sampled_states if sampled_states else 0.0,
            "B/state"),
        "semantics.build_s": secs("semantics.enabled"),
        "semantics.call_us.enabled": call_us("semantics.enabled"),
        "semantics.call_us.successors": call_us("semantics.successors"),
        "semantics.call_us.step": call_us("semantics.step"),
        "semantics.replay_s": secs("semantics.replay"),
        "reduce_linear.compile_s": secs("reduce_linear.compile"),
        "reduce_linear.interactions": count("reduce_linear.compile", "interactions"),
        "turing.run_s": secs("turing.run"),
        "turing.steps": count("turing.run", "steps"),
        "oracle.thm1_self_s": secs("oracle.thm1"),
        "oracle.brute_force_s": secs("oracle.brute_force"),
        "oracle.brute_force_states": count("oracle.brute_force", "states"),
        "oracle.product_states": count("oracle.brute_force", "product"),
        "oracle.thm2_self_s": secs("oracle.thm2"),
        "reduce_star.starify_s": secs("reduce_star.starify"),
        "reduce_star.project_s": secs("reduce_star.project"),
        "reduce_star.interactions": count("reduce_star.starify", "interactions"),
        "reduce_star.hub_states": count("reduce_star.starify", "hub_states"),
        "bench.self_s": (sum(own.get(n, 0) for n in ("job", "bench.walk")) * scale / passes, "s"),
        # one thread, no I/O: no layer ever waits for another
        "layers.wait_s": (0.0, "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def _commit() -> str:
    # only inside a git checkout, so git never searches the directories above
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "interax" / "__init__.py").is_file():
        print(f"error: no interax sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    clock = Clock()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        mark = clock.sample()
        t0 = time.perf_counter_ns()
        modules, api, work = set_up(args.workload, args.seed)
        elapsed_ns = time.perf_counter_ns() - t0
        clock.sample()
        setup_s.append(elapsed_ns * clock.scale(mark) / 1e9)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={_commit()} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    for note in work.notes:
        print(f"# {note}")
    probes = Tracer()
    restore = instrument(probes, api, modules, probes_only=True)
    loop = Loop(work.jobs, probes, work.rate_span, job_spans=False, clock=clock)
    correct = True
    if args.trace == 0:
        loop.run(api, args.seconds)
        metrics = end_to_end(loop, setup_s)
    else:
        loop.run(api, args.seconds / 3)
        restore()
        traced = Tracer()
        restore = instrument(traced, api, modules, probes_only=False)
        traced_loop = Loop(work.jobs, traced, work.rate_span, job_spans=True, clock=clock)
        traced_loop.run(api, args.seconds * 2 / 3 - sum(loop.raw_pass_s))
        overhead = statistics.median(traced_loop.pass_s) / statistics.median(loop.pass_s)
        restore()
        memory = Tracer()
        memory.memory = True
        restore = instrument(memory, api, modules, probes_only=False)
        sampled = Loop([j for j in work.jobs if j.memory_sample], memory, work.rate_span,
                       job_spans=True, clock=clock)
        tracemalloc.start()
        try:
            sampled.one_pass(api)
        finally:
            tracemalloc.stop()
        for extra in (traced_loop, sampled):
            loop.attempted += extra.attempted
            loop.failed += extra.failed
        bad = nesting_violations(traced.spans) + nesting_violations(memory.spans)
        correct = bad == 0
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced.write(span_file)
        print(f"# {len(traced.spans)} spans over {len(traced_loop.pass_s)} traced passes "
              f"written to {span_file.relative_to(ROOT)}; {bad} outside their parent or job; "
              f"tracing overhead {overhead:.3f}x untraced wall_s (tracemalloc off)")
        metrics = per_layer(traced, traced_loop, memory, overhead)
    restore()

    correct = correct and loop.failed == 0
    print(f"# failed_frac={loop.failed / loop.attempted:.6f} "
          f"({loop.failed} of {loop.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
