"""Unit tests for the MinDist matrix and cyclic ASAP."""

import numpy as np

from repro.engine import NO_PATH, SchedulingSession
from repro.engine.mindist import factorise, solve
from repro.graph.builder import GraphBuilder
from repro.machine.configs import motivating_machine


def mindist(graph, ii):
    """The pure MinDist solve at *ii*: ``(dist, names)`` or ``None``."""
    factors = factorise(graph)
    dist = solve(factors, ii)
    return None if dist is None else (dist, factors.names)


def cyclic_asap(graph, ii):
    """Cyclic ASAP through a throwaway session (machine-independent)."""
    return SchedulingSession(graph, motivating_machine()).cyclic_asap(ii)


def recurrence_graph():
    """a(2) -> b(3) -> a with distance 1; c consumes b."""
    return (
        GraphBuilder()
        .op("a", latency=2)
        .op("b", latency=3, deps=["a"])
        .op("c", latency=1, deps=["b"])
        .edge("b", "a", distance=1)
        .build()
    )


class TestMinDist:
    def test_direct_edges(self):
        g = GraphBuilder().op("a", latency=2).op("b", deps=["a"]).build()
        dist, names = mindist(g, ii=1)
        i, j = names.index("a"), names.index("b")
        assert dist[i, j] == 2
        assert dist[j, i] <= NO_PATH // 2

    def test_transitive_longest_path(self):
        g = (
            GraphBuilder()
            .op("a", latency=2)
            .op("b", latency=3, deps=["a"])
            .op("c", latency=1, deps=["b", "a"])
            .build()
        )
        dist, names = mindist(g, ii=1)
        # a->c direct costs 2; a->b->c costs 5 — longest path wins.
        assert dist[names.index("a"), names.index("c")] == 5

    def test_loop_carried_edges_scaled_by_ii(self):
        g = recurrence_graph()
        dist, names = mindist(g, ii=5)
        # b -> a at distance 1: weight 3 - 5 = -2.
        assert dist[names.index("b"), names.index("a")] == -2

    def test_infeasible_ii_detected(self):
        g = recurrence_graph()
        # Circuit latency 5, distance 1: RecMII = 5.
        assert mindist(g, ii=4) is None
        assert mindist(g, ii=5) is not None

    def test_self_loop_feasibility(self):
        g = GraphBuilder().op("a", latency=4, deps=[("a", 2)]).build()
        assert mindist(g, ii=1) is None
        assert mindist(g, ii=2) is not None

    def test_diagonal_zero_at_feasible_ii(self):
        g = recurrence_graph()
        dist, _ = mindist(g, ii=5)
        assert np.all(np.diag(dist) <= 0)


class TestCyclicASAP:
    def test_matches_acyclic_asap_without_recurrences(self):
        g = (
            GraphBuilder()
            .op("a", latency=2)
            .op("b", latency=3, deps=["a"])
            .op("c", latency=1, deps=["b"])
            .build()
        )
        assert cyclic_asap(g, ii=3) == {"a": 0, "b": 2, "c": 5}

    def test_recurrence_floor(self):
        g = recurrence_graph()
        asap = cyclic_asap(g, ii=5)
        assert asap["a"] == 0
        assert asap["b"] == 2
        assert asap["c"] == 5

    def test_none_for_infeasible(self):
        assert cyclic_asap(recurrence_graph(), ii=2) is None
