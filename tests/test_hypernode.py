"""Unit tests for the hypernode working graph and Figure 6's reduction."""

import pytest

from repro.errors import UnknownOperationError
from repro.graph.builder import GraphBuilder
from repro.core.hypernode import HypernodeGraph


def sample():
    """p1 -> m -> s1, p2 -> m, m -> s2, plus bystander edges."""
    b = GraphBuilder()
    for name in ["p1", "p2", "m", "s1", "s2", "z"]:
        b.op(name)
    return (
        b.edge("p1", "m").edge("p2", "m")
        .edge("m", "s1").edge("m", "s2")
        .edge("p1", "z")
        .build()
    )


class TestHypernodeGraph:
    def test_mirrors_base_adjacency(self):
        h = HypernodeGraph(sample())
        assert h.predecessors("m") == ["p1", "p2"]
        assert h.successors("m") == ["s1", "s2"]
        assert len(h) == 6

    def test_dropped_edges_are_invisible(self):
        g = sample()
        key = ("p1", "m", 0, "register")
        h = HypernodeGraph(g, dropped_edge_keys={key})
        assert h.predecessors("m") == ["p2"]

    def test_dropped_key_drops_its_whole_hop(self):
        # b -> a carries distance-1 and distance-2 edges; the circuit
        # search names only the distance-1 edge as the backward edge.
        g = (
            GraphBuilder().op("a").op("b")
            .edge("a", "b").edge("b", "a", distance=1)
            .edge("b", "a", distance=2)
            .build()
        )
        h = HypernodeGraph(g, dropped_edge_keys={("b", "a", 1, "register")})
        assert h.successors("b") == []
        assert h.predecessors("a") == []
        assert h.successors("a") == ["b"]

    def test_restricted_node_set(self):
        h = HypernodeGraph(sample(), nodes=["p1", "m"])
        assert h.node_names() == ["p1", "m"]
        assert h.successors("m") == []  # s1/s2 outside the view

    def test_unknown_node_raises(self):
        h = HypernodeGraph(sample(), nodes=["p1", "m"])
        with pytest.raises(UnknownOperationError):
            h.predecessors("s1")


class TestReduction:
    def test_reduce_redirects_boundary_edges(self):
        h = HypernodeGraph(sample())
        h.reduce(["m"], "p1")
        # m's successors become p1's; m disappears.
        assert "m" not in h
        assert set(h.successors("p1")) == {"z", "s1", "s2"}
        # p2 -> m becomes p2 -> p1.
        assert h.predecessors("p1") == ["p2"]

    def test_reduce_removes_internal_edges(self):
        h = HypernodeGraph(sample())
        h.reduce(["p2", "m"], "p1")
        assert h.predecessors("p1") == []  # p2->m was internal

    def test_reduce_never_creates_self_loop(self):
        h = HypernodeGraph(sample())
        h.reduce(["m", "s1", "s2", "p2", "z"], "p1")
        assert h.successors("p1") == []
        assert h.predecessors("p1") == []

    def test_reduce_returns_captured_subgraph(self):
        h = HypernodeGraph(sample())
        captured = h.reduce(["p2", "m", "s1"], "p1")
        assert captured.node_names() == ["p2", "m", "s1"]
        assert captured.successors("p2") == ["m"]
        assert captured.successors("m") == ["s1"]

    def test_captured_subgraph_survives_later_mutation(self):
        h = HypernodeGraph(sample())
        captured = h.reduce(["m"], "p1")
        h.reduce(["s1", "s2"], "p1")
        assert captured.node_names() == ["m"]

    def test_hypernode_not_reducible_into_itself(self):
        h = HypernodeGraph(sample())
        h.reduce(["p1"], "p1")  # silently ignored
        assert "p1" in h


class TestInduced:
    def test_keeps_current_adjacency(self):
        h = HypernodeGraph(sample())
        h.add_virtual_edge("z", "s1")
        h.reduce(["m"], "p1")
        copy = h.induced(["p1", "p2", "z", "s1"])
        assert copy.node_names() == ["p1", "p2", "s1", "z"]
        assert copy.successors("p1") == ["s1", "z"]
        assert copy.predecessors("p1") == ["p2"]
        assert copy.successors("z") == ["s1"]

    def test_detached_from_the_original(self):
        h = HypernodeGraph(sample())
        copy = h.induced(["p1", "m", "s1"])
        copy.reduce(["m"], "p1")
        h.add_virtual_edge("s1", "p1")
        assert h.successors("p1") == ["m", "z"]
        assert copy.successors("p1") == ["s1"]
        assert copy.successors("s1") == []

    def test_unknown_node_raises(self):
        h = HypernodeGraph(sample(), nodes=["p1", "m"])
        with pytest.raises(UnknownOperationError):
            h.induced(["p1", "s1"])


class TestVirtualEdges:
    def test_virtual_edge_connects(self):
        h = HypernodeGraph(sample())
        h.add_virtual_edge("z", "s1")
        assert "s1" in h.successors("z")

    def test_self_virtual_edge_ignored(self):
        h = HypernodeGraph(sample())
        h.add_virtual_edge("z", "z")
        assert h.successors("z") == []
