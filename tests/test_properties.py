"""Property tests, run when Hypothesis is installed (the `test` extra)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from interax import canonicalize_system, starify, validate_system  # noqa: E402
from interax.formats import parse_system, serialize_system  # noqa: E402
from interax.oracle import GenParams, gen_random_system  # noqa: E402

bound = st.integers(1, 4)


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_components=bound,
    max_states=bound,
    max_ports=bound,
    max_interactions=bound,
    max_interaction_size=bound,
)
def test_one_port_list_is_one_port_family(seed, **bounds):
    # a document states each component's ports once, and so does the model
    system = gen_random_system(GenParams(seed=seed, **bounds))
    assert parse_system(serialize_system(system)) == canonicalize_system(system)
    assert validate_system(system).ok
    assert validate_system(starify(system)).ok
