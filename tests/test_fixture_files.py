"""The checked-in fixtures/ documents must match the in-package builders."""

from pathlib import Path

import pytest

from interax import Outcome, check_theorem1, run_tm
from interax.fixtures import client_server, even_a, first_last, pipeline
from interax.formats import parse_dtm, serialize_dtm, serialize_system

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_client_server_files_current(r):
    assert (
        FIXTURES / f"clientserver_r{r}.json"
    ).read_text() == serialize_system(client_server(r))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pipeline_files_current(n):
    assert (FIXTURES / f"pipeline_n{n}.json").read_text() == serialize_system(
        pipeline(n)
    )


def test_machine_files_current():
    assert (FIXTURES / "even_a.json").read_text() == serialize_dtm(even_a())
    assert (FIXTURES / "first_last.json").read_text() == serialize_dtm(first_last())
    # no builder in the package: the file itself is the machine's definition
    for name in ("ping_pong.json", "counter.json"):
        text = (FIXTURES / name).read_text()
        assert serialize_dtm(parse_dtm(text)) == text


def test_counter_runs_exponentially_long_and_theorem1_agrees():
    # the binary counter on 0^n counts to 1^n and overflows into cell 0:
    # 4·2^n − 2 steps, all replayed by the line system of n + 2 cells
    counter = parse_dtm((FIXTURES / "counter.json").read_text())
    for n in range(9):
        result = run_tm(counter, "0" * n)
        assert (result.outcome, result.steps) == (Outcome.ACCEPT, 4 * 2**n - 2)
        verdict = check_theorem1(counter, "0" * n)
        assert (verdict.agree, verdict.complete) == (True, True)


def test_builders_refuse_too_few_members():
    with pytest.raises(ValueError, match="^need at least one client$"):
        client_server(0)
    with pytest.raises(ValueError, match="^need at least two stations$"):
        pipeline(1)
