"""Interaction graphs, star/line classification, DOT export."""

import pytest

from interax import (
    Interaction,
    InteractionGraph,
    InteractionModel,
    InteractionSystem,
    LocalBehavior,
    ModelError,
    PortId,
    TopologyClass,
    classify,
    export_dot,
    interaction_graph,
)
from interax.fixtures import client_server, pipeline


def small_model(components, edges):
    """Binary interactions along the given component pairs."""
    ports = {c: [] for c in components}
    interactions = []
    for k, (a, b) in enumerate(edges):
        ports[a].append(f"e{k}")
        ports[b].append(f"e{k}")
        interactions.append(
            Interaction(f"link{k}", (PortId(a, f"e{k}"), PortId(b, f"e{k}")))
        )
    return InteractionModel(
        tuple(components),
        {c: tuple(ps) for c, ps in ports.items()},
        tuple(interactions),
    )


class TestInteractionGraph:
    def test_client_server_r3_star_shape(self):
        g = interaction_graph(client_server(3).model)
        assert g.nodes == ("S", "c1", "c2", "c3")
        assert g.edges == (("S", "c1"), ("S", "c2"), ("S", "c3"))

    def test_pipeline_n4_path_shape(self):
        g = interaction_graph(pipeline(4).model)
        assert g.edges == (("s1", "s2"), ("s2", "s3"), ("s3", "s4"))

    def test_singleton_interactions_create_no_edges(self):
        im = InteractionModel(
            ("a", "b"),
            {"a": ("x",), "b": ("y",)},
            (
                Interaction("ax", (PortId("a", "x"),)),
                Interaction("by", (PortId("b", "y"),)),
            ),
        )
        assert interaction_graph(im).edges == ()

    def test_graph_ignores_behaviors(self):
        sys = client_server(2)
        other = InteractionSystem(
            sys.model,
            {
                c: LocalBehavior(("only",), frozenset(), "only")
                for c in sys.behaviors
            },
        )
        assert interaction_graph(sys.model) == interaction_graph(other.model)

    def test_edge_count_bound(self):
        for im in (client_server(4).model, pipeline(5).model):
            g = interaction_graph(im)
            n = len(g.nodes)
            assert len(g.edges) <= n * (n - 1) // 2


class TestClassify:
    def test_empty_model_is_neither(self):
        assert classify(InteractionModel((), {}, ())) == TopologyClass(False, False)

    def test_client_server_r3_star_not_linear(self):
        shape = classify(client_server(3).model)
        assert shape.star_like and not shape.linear

    def test_pipeline_n5_linear_not_star(self):
        shape = classify(pipeline(5).model)
        assert shape.linear and not shape.star_like

    def test_triangle_neither(self):
        im = small_model(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
        shape = classify(im)
        assert not shape.star_like and not shape.linear

    def test_two_components_single_edge_is_both(self):
        im = small_model(("a", "b"), [("a", "b")])
        shape = classify(im)
        assert shape.star_like and shape.linear

    def test_three_node_path_is_both(self):
        # a 3-node path is also a 2-leaf star; both flags by the definitions
        shape = classify(pipeline(3).model)
        assert shape.star_like and shape.linear

    def test_single_component(self):
        im = InteractionModel(("a",), {"a": ("x",)}, (Interaction("ax", (PortId("a", "x"),)),))
        shape = classify(im)
        assert shape.star_like and not shape.linear

    def test_isolated_component_breaks_both(self):
        im = small_model(("a", "b", "c", "d"), [("a", "b"), ("b", "c")])
        shape = classify(im)
        assert not shape.star_like and not shape.linear

    def test_star_or_linear_implies_binary_interactions(self):
        for im in (
            client_server(2).model,
            client_server(4).model,
            pipeline(3).model,
            pipeline(6).model,
            small_model(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")]),
        ):
            shape = classify(im)
            if shape.star_like or shape.linear:
                assert max(len(a.ports) for a in im.interactions) <= 2


class TestExportDot:
    def test_two_nodes_one_edge(self):
        g = interaction_graph(small_model(("a", "b"), [("a", "b")]))
        dot = export_dot(g)
        assert dot.count("--") == 1
        assert dot == 'graph interaction {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'

    def test_edgeless_graph_lists_all_nodes(self):
        im = InteractionModel(
            ("a", "b"),
            {"a": ("x",), "b": ("y",)},
            (
                Interaction("ax", (PortId("a", "x"),)),
                Interaction("by", (PortId("b", "y"),)),
            ),
        )
        dot = export_dot(interaction_graph(im))
        assert '"a";' in dot and '"b";' in dot
        assert "--" not in dot

    def test_client_server_r2_counts(self):
        g = interaction_graph(client_server(2).model)
        dot = export_dot(g)
        assert len(g.nodes) == 3
        assert dot.count("--") == 2

    def test_byte_stable(self):
        g = interaction_graph(pipeline(4).model)
        assert export_dot(g) == export_dot(g)


class TestUntypedNames:
    """Names that are not strings are refused through the model's gates,
    as `canonicalize` refuses them, never with a bare `TypeError` or
    `AttributeError`."""

    @pytest.mark.parametrize("build", [interaction_graph, classify])
    def test_mixed_names(self, build):
        im = small_model(("a", 2), [("a", 2)])
        with pytest.raises(
            ModelError, match="^cannot build the interaction graph: name 2 is not a string$"
        ):
            build(im)

    @pytest.mark.parametrize("build", [interaction_graph, classify])
    def test_entry_that_is_not_a_port_id(self, build):
        im = InteractionModel(
            ("a", "b"),
            {"a": ("x",), "b": ("x",)},
            (Interaction("i", ("a.x", PortId("b", "x"))),),
        )
        with pytest.raises(
            ModelError,
            match="^cannot build the interaction graph: "
            "interaction 'i' lists 'a.x', which is not a PortId$",
        ):
            build(im)

    def test_int_names_are_not_exported(self):
        g = interaction_graph(small_model((1, 2), [(1, 2)]))
        assert g == InteractionGraph((1, 2), ((1, 2),))
        with pytest.raises(ModelError, match="^cannot export DOT: name 1 is not a string$"):
            export_dot(g)

    def test_a_name_is_never_compared_with_itself(self):
        # a component named by no other port of its interaction is sorted
        # with nothing, so even a name that cannot be ordered gives a graph
        im = InteractionModel(
            ("a",),
            {"a": ("x",)},
            (Interaction("i", (PortId(None, "p"), PortId(None, "q"))),),
        )
        assert interaction_graph(im) == InteractionGraph(("a",), ())

    def test_int_name_on_an_edge_only(self):
        g = InteractionGraph(("a", "b"), (("a", 3),))
        with pytest.raises(ModelError, match="^cannot export DOT: name 3 is not a string$"):
            export_dot(g)
