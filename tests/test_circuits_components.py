"""Unit tests for circuit enumeration and connected components."""

from repro.graph.builder import GraphBuilder
from repro.graph.circuits import elementary_circuits
from repro.graph.components import connected_components


def figure8b():
    """Two circuits sharing the backward edge E -> A."""
    b = GraphBuilder("fig8b")
    for name in "ABCDE":
        b.op(name)
    return (
        b.edge("A", "B").edge("B", "C").edge("C", "E")
        .edge("A", "D").edge("D", "E")
        .edge("E", "A", distance=1)
        .build()
    )


def figure8c():
    """Two circuits sharing nodes but with distinct backward edges."""
    b = GraphBuilder("fig8c")
    for name in "ABCDE":
        b.op(name)
    return (
        b.edge("A", "C").edge("C", "D")
        .edge("D", "A", distance=1)
        .edge("C", "E")
        .edge("E", "C", distance=1)
        .build()
    )


class TestElementaryCircuits:
    def test_acyclic_graph_has_none(self):
        g = GraphBuilder().op("a").op("b").edge("a", "b").build()
        assert elementary_circuits(g) == []

    def test_simple_cycle(self):
        g = (
            GraphBuilder().op("a").op("b")
            .edge("a", "b").edge("b", "a", distance=1)
            .build()
        )
        circuits = elementary_circuits(g)
        assert len(circuits) == 1
        assert set(circuits[0].nodes) == {"a", "b"}
        assert circuits[0].distance == 1

    def test_self_loop(self):
        g = GraphBuilder().op("a", deps=[("a", 1)]).build()
        circuits = elementary_circuits(g)
        assert len(circuits) == 1
        assert circuits[0].nodes == ("a",)

    def test_shared_backward_edge_two_circuits(self):
        circuits = elementary_circuits(figure8b())
        assert len(circuits) == 2
        node_sets = {frozenset(c.nodes) for c in circuits}
        assert frozenset("ABCE") in node_sets
        assert frozenset("ADE") in node_sets
        # Both circuits close through the same backward edge.
        backs = {c.backward_keys for c in circuits}
        assert len(backs) == 1

    def test_distinct_backward_edges(self):
        circuits = elementary_circuits(figure8c())
        assert len(circuits) == 2
        backs = {c.backward_keys for c in circuits}
        assert len(backs) == 2

    def test_parallel_edges_pick_min_distance(self):
        g = (
            GraphBuilder().op("a").op("b")
            .edge("a", "b")
            .edge("b", "a", distance=1)
            .edge("b", "a", distance=3)
            .build()
        )
        circuits = elementary_circuits(g)
        assert len(circuits) == 1
        assert circuits[0].distance == 1

    def test_deterministic(self):
        first = [c.nodes for c in elementary_circuits(figure8c())]
        second = [c.nodes for c in elementary_circuits(figure8c())]
        assert first == second


class TestComponents:
    def test_single_component(self):
        g = GraphBuilder().op("a").op("b").edge("a", "b").build()
        assert connected_components(g) == [["a", "b"]]

    def test_two_components_program_order(self):
        g = (
            GraphBuilder().op("a").op("x").op("b").op("y")
            .edge("a", "b").edge("x", "y")
            .build()
        )
        assert connected_components(g) == [["a", "b"], ["x", "y"]]

    def test_direction_ignored(self):
        g = GraphBuilder().op("a").op("b").edge("b", "a", distance=1).build()
        assert len(connected_components(g)) == 1
