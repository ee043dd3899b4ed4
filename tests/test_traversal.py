"""Unit tests for topological orders, levels and reachability."""

import pytest

from repro.errors import CyclicGraphError
from repro.graph.builder import GraphBuilder
from repro.graph.traversal import (
    alap_levels,
    asap_levels,
    asap_order,
    backward_reachable,
    forward_reachable,
    is_acyclic,
    pala_order,
    topological_order,
)


def diamond():
    """a -> {b, c} -> d with latency-2 ops on one arm."""
    return (
        GraphBuilder()
        .op("a", latency=1)
        .op("b", latency=2, deps=["a"])
        .op("c", latency=1, deps=["a"])
        .op("d", latency=1, deps=["b", "c"])
        .build()
    )


class TestTopologicalOrder:
    def test_respects_edges_and_program_order(self):
        order = topological_order(diamond())
        assert order == ["a", "b", "c", "d"]

    def test_cycle_raises(self):
        g = GraphBuilder().op("a").op("b")
        g.edge("a", "b").edge("b", "a", distance=1)
        graph = g.build()
        with pytest.raises(CyclicGraphError):
            topological_order(graph)
        assert not is_acyclic(graph)

    def test_program_order_tiebreak(self):
        g = GraphBuilder().op("z").op("a").op("m").build()
        assert topological_order(g) == ["z", "a", "m"]


class TestLevels:
    def test_asap_levels_use_latency(self):
        levels = asap_levels(diamond())
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 3}

    def test_alap_levels_anchor_on_critical_path(self):
        levels = alap_levels(diamond())
        # Critical path a(1) b(2) d(1) = 4 cycles.
        assert levels["d"] == 3
        assert levels["b"] == 1
        assert levels["c"] == 2  # slack of 1
        assert levels["a"] == 0

    def test_slack_nonnegative(self):
        asap = asap_levels(diamond())
        alap = alap_levels(diamond())
        assert all(alap[n] >= asap[n] for n in asap)


class TestSortedOrders:
    def test_asap_order(self):
        assert asap_order(diamond()) == ["a", "b", "c", "d"]

    def test_pala_order_is_inverted_alap(self):
        # ALAP order: a(0), b(1), c(2), d(3) -> inverted.
        assert pala_order(diamond()) == ["d", "c", "b", "a"]


class TestReachability:
    def test_forward(self):
        assert forward_reachable(diamond(), ["b"]) == {"b", "d"}

    def test_backward(self):
        assert backward_reachable(diamond(), ["b"]) == {"a", "b"}

    def test_seeds_included(self):
        assert "c" in forward_reachable(diamond(), ["c"])

    def test_blocked_nodes_are_never_entered(self):
        assert forward_reachable(diamond(), ["a"], blocked={"b"}) == {
            "a", "c", "d"
        }
        assert backward_reachable(diamond(), ["d"], blocked={"b", "c"}) == {
            "d"
        }
