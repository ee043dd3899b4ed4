"""Unit tests for the dependence-graph container."""

import pytest

from repro.errors import (
    DuplicateOperationError,
    UnknownOperationError,
    ZeroDistanceCycleError,
)
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import DependenceKind, Edge
from repro.graph.ops import Operation


def chain_graph(n: int = 4) -> DependenceGraph:
    g = DependenceGraph("chain")
    names = [f"n{i}" for i in range(n)]
    for name in names:
        g.add_operation(Operation(name))
    for src, dst in zip(names, names[1:]):
        g.add_edge(Edge(src, dst))
    return g


class TestConstruction:
    def test_program_order_is_insertion_order(self):
        g = DependenceGraph()
        for name in ["z", "a", "m"]:
            g.add_operation(Operation(name))
        assert g.node_names() == ["z", "a", "m"]
        assert g.first_node == "z"

    def test_duplicate_operation_rejected(self):
        g = DependenceGraph()
        g.add_operation(Operation("a"))
        with pytest.raises(DuplicateOperationError):
            g.add_operation(Operation("a"))

    def test_edge_requires_both_endpoints(self):
        g = DependenceGraph()
        g.add_operation(Operation("a"))
        with pytest.raises(UnknownOperationError):
            g.add_edge(Edge("a", "missing"))

    def test_duplicate_edges_are_idempotent(self):
        g = chain_graph(2)
        g.add_edge(Edge("n0", "n1"))  # already present
        assert g.edge_count() == 1

    def test_parallel_edges_with_distinct_distance(self):
        g = chain_graph(2)
        g.add_edge(Edge("n0", "n1", distance=1))
        assert g.edge_count() == 2


class TestQueries:
    def test_predecessors_and_successors(self):
        g = chain_graph(3)
        assert g.successors("n0") == ["n1"]
        assert g.predecessors("n2") == ["n1"]

    def test_value_consumers_filters_memory_edges(self):
        g = chain_graph(3)
        g.add_edge(Edge("n0", "n2", 1, DependenceKind.MEMORY))
        assert g.value_consumers("n0") == [("n1", 0)]

    def test_unknown_lookup_raises(self):
        g = chain_graph(2)
        with pytest.raises(UnknownOperationError):
            g.operation("ghost")
        with pytest.raises(UnknownOperationError):
            g.out_edges("ghost")

    def test_total_latency(self):
        g = DependenceGraph()
        g.add_operation(Operation("a", latency=2))
        g.add_operation(Operation("b", latency=17))
        assert g.total_latency() == 19


class TestMutation:
    def test_remove_edge(self):
        g = chain_graph(3)
        g.remove_edge(Edge("n0", "n1"))
        assert g.successors("n0") == []
        assert g.edge_count() == 1

    def test_remove_operation_removes_incident_edges(self):
        g = chain_graph(3)
        g.remove_operation("n1")
        assert "n1" not in g
        assert g.edge_count() == 0

    def test_copy_is_independent(self):
        g = chain_graph(3)
        clone = g.copy()
        clone.remove_operation("n1")
        assert "n1" in g
        assert g.edge_count() == 2

    def test_subgraph_induces_edges(self):
        g = chain_graph(4)
        sub = g.subgraph(["n1", "n2"])
        assert sub.node_names() == ["n1", "n2"]
        assert sub.edge_count() == 1

    def test_subgraph_unknown_member(self):
        g = chain_graph(2)
        with pytest.raises(UnknownOperationError):
            g.subgraph(["n0", "ghost"])


class TestValidation:
    def test_zero_distance_cycle_rejected(self):
        g = chain_graph(3)
        g.add_edge(Edge("n2", "n0", 0))
        with pytest.raises(ZeroDistanceCycleError):
            g.validate()

    def test_positive_distance_cycle_accepted(self):
        g = chain_graph(3)
        g.add_edge(Edge("n2", "n0", 1))
        g.validate()

    def test_self_loop_with_distance_accepted(self):
        g = chain_graph(2)
        g.add_edge(Edge("n0", "n0", 1))
        g.validate()
