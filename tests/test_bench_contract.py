"""The benchmark's instrumentation contract.

`bench/tracing.py` times the package by swapping public functions and the
module globals the package calls.  A refactor that renames one of them, or
stops calling it by its module global, would silently drop a span.  These
tests only import files under `bench/`; they change none.
"""

import importlib
import sys
from pathlib import Path

import pytest

from interax import oracle, reduce_star, semantics
from interax.fixtures import even_a, pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    """`bench/run.py`, imported the way the benchmark runs it.  Every module
    imported meanwhile, including the fresh copy of the package, is dropped
    again afterwards."""
    before = dict(sys.modules)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("run")
    finally:
        for name in set(sys.modules) - set(before):
            del sys.modules[name]
        sys.modules.update(before)


def test_traced_names_exist_on_fresh_import(bench_run):
    tracing = sys.modules["tracing"]
    modules = bench_run._import_fresh()
    api = bench_run._call_table(modules)
    missing = [attr for attr in tracing.API_SPANS if not hasattr(api, attr)]
    missing += [
        f"{mod}.{attr}"
        for mod, attr in tracing.MODULE_SPANS
        if not hasattr(modules[mod], attr)
    ]
    assert missing == []


def spy(monkeypatch, module, attr):
    """Wrap a module global (or a class attribute, such as `__init__`) so
    that calls through it are counted."""
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_check_theorem1_searches_through_module_global(monkeypatch):
    # bench/tracing.py wraps this call (MODULE_SPANS) in the span that
    # line-thm1's states_per_s divides by (Workload.rate_span): were
    # check_theorem1 to drop the search and read the answer off the
    # lockstep, that metric would read 0.0 and fail the no-regression rule,
    # so such a change waits for a benchmark change that times the lockstep
    calls = spy(monkeypatch, oracle, "is_reachable")
    assert oracle.check_theorem1(even_a(), "aa").agree
    assert len(calls) == 1


def test_check_theorem1_validates_once_through_module_global(monkeypatch):
    # the search compiles the line system through `compile_system`; the
    # lockstep replay adds no validation of its own
    calls = spy(monkeypatch, semantics, "validate_system")
    oracle.check_theorem1(even_a(), "aaaa")
    assert len(calls) == 1


def test_a_walk_compiles_its_system_once(monkeypatch):
    validate = spy(monkeypatch, semantics, "validate_system")
    build = spy(monkeypatch, semantics.Engine, "__init__")
    system = pipeline(3)
    q, trace = system.initial_state(), []
    for k in range(10):
        enabled = sorted(semantics.enabled_interactions(system, q))
        assert [name for name, _ in semantics.successors(system, q)] == enabled
        name = enabled[k % len(enabled)]
        q = semantics.step(system, q, name)
        trace.append(name)
    assert q in semantics.replay_trace(system, trace)
    assert (len(validate), len(build)) == (1, 1)


def test_check_theorem1_builds_one_engine(monkeypatch):
    # counts every construction, also one through a name bound elsewhere
    build = spy(monkeypatch, semantics.Engine, "__init__")
    assert oracle.check_theorem1(even_a(), "aaaa").agree
    assert len(build) == 1


def test_check_theorem2_calls_through_module_globals(monkeypatch):
    starify = spy(monkeypatch, oracle, "starify")
    brute = spy(monkeypatch, oracle, "brute_force_reachable")
    project = spy(monkeypatch, oracle, "project_state")
    validate = spy(monkeypatch, reduce_star, "validate_system")
    system = pipeline(3)
    verdict = oracle.check_theorem2(system)
    assert verdict.details == "|reach|=4 |reach'|=34 |projected|=4"
    assert (len(starify), len(brute), len(project), len(validate)) == (1, 2, 34, 1)
    # every projection takes the source system, not its starification
    assert all(args[0] is system for args in project)


def test_the_bench_emits_the_bytes_the_cli_writes(bench_run):
    # the CLI writes a verdict through `formats.dump_document`, which stamps
    # the version; the bench's call table writes the stamped document itself
    modules, api, work = bench_run.set_up("line-thm1", 1)
    doc, _ = work.warmup[0].run(api)
    assert doc["kind"] == "verdict"
    unstamped = {key: value for key, value in doc.items() if key != "version"}
    assert api.emit(doc) == modules["formats"].dump_document(unstamped)
