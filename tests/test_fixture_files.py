"""The checked-in fixtures/ documents must match the in-package builders."""

from pathlib import Path

import pytest

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
    text = (FIXTURES / "ping_pong.json").read_text()
    assert serialize_dtm(parse_dtm(text)) == text


def test_builders_refuse_too_few_members():
    with pytest.raises(ValueError, match="^need at least one client$"):
        client_server(0)
    with pytest.raises(ValueError, match="^need at least two stations$"):
        pipeline(1)
