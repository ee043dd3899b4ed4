"""Tests for the HRMS pre-ordering: the paper's walk-throughs and the
only-predecessors-or-only-successors invariant."""

import pytest

from repro.core.hypernode import HypernodeGraph
from repro.core.ordering import hrms_order
from repro.core.paths import search_all_paths
from repro.errors import UnknownOperationError
from repro.graph.builder import GraphBuilder
from repro.machine.configs import motivating_machine, perfect_club_machine
from repro.mii.analysis import compute_mii
from repro.mii.recurrences import all_backward_edge_keys
from repro.workloads.motivating import (
    FIGURE7_ORDER,
    FIGURE10_ORDER,
    MOTIVATING_HRMS_ORDER,
    figure7_graph,
    figure10_graph,
    motivating_example,
)
from repro.workloads.perfectclub import perfect_club_suite


def order_of(graph, machine=None):
    machine = machine or motivating_machine()
    return hrms_order(graph, machine=machine).order


class TestPaperWalkthroughs:
    def test_motivating_example_order(self):
        assert order_of(motivating_example()) == MOTIVATING_HRMS_ORDER

    def test_figure7_order(self):
        assert order_of(figure7_graph()) == FIGURE7_ORDER

    def test_figure10_order(self):
        assert order_of(figure10_graph()) == FIGURE10_ORDER


class TestSearchAllPaths:
    def test_intermediate_nodes_found(self):
        g = (
            GraphBuilder()
            .op("b").op("e", deps=["b"]).op("i", deps=["e"])
            .build()
        )
        h = HypernodeGraph(g)
        assert search_all_paths(h, {"b", "i"}) == {"b", "e", "i"}

    def test_seeds_always_included(self):
        g = GraphBuilder().op("a").op("b").build()
        h = HypernodeGraph(g)
        assert search_all_paths(h, {"a", "b"}) == {"a", "b"}

    def test_excluded_node_blocks_paths(self):
        g = (
            GraphBuilder()
            .op("a").op("h", deps=["a"]).op("b", deps=["h"])
            .build()
        )
        h = HypernodeGraph(g)
        # Path a->h->b exists, but h is excluded: only seeds remain.
        assert search_all_paths(h, {"a", "b"}, exclude=("h",)) == {"a", "b"}
        # A seed that is also excluded stays a seed: the path is open.
        assert search_all_paths(
            h, {"a", "h", "b"}, exclude=("h",)
        ) == {"a", "h", "b"}

    def test_off_path_nodes_not_included(self):
        g = (
            GraphBuilder()
            .op("a").op("b", deps=["a"]).op("c", deps=["a"])
            .build()
        )
        h = HypernodeGraph(g)
        # c hangs off a but is on no path between a and b.
        assert search_all_paths(h, {"a", "b"}) == {"a", "b"}


def neighbour_sides(graph, order):
    """For each node, which sides of it were scheduled before it."""
    placed: set[str] = set()
    sides = []
    for name in order:
        preds = set(graph.predecessors(name)) & placed
        succs = set(graph.successors(name)) & placed
        sides.append((name, bool(preds - {name}), bool(succs - {name})))
        placed.add(name)
    return sides


class TestOrderingInvariants:
    @pytest.fixture(scope="class")
    def population(self):
        return perfect_club_suite(n_loops=40, seed=7)

    def test_every_node_exactly_once(self, population):
        machine = perfect_club_machine()
        for loop in population:
            order = order_of(loop.graph, machine)
            assert sorted(order) == sorted(loop.graph.node_names()), loop.name

    def test_reference_op_except_first_per_component(self, population):
        """Reference-free ops are bounded by components + recurrences.

        Each component's first node has no reference by definition, and a
        recurrence subgraph with no path to the hypernode is attached via
        a virtual edge (Section 3.2's "no path" case), so its first node
        is also legitimately reference-free.
        """
        from repro.graph.components import connected_components

        machine = perfect_club_machine()
        for loop in population:
            order = order_of(loop.graph, machine)
            analysis = compute_mii(loop.graph, machine)
            n_components = len(connected_components(loop.graph))
            n_recurrences = sum(
                1 for s in analysis.subgraphs if not s.is_trivial
            )
            orphans = sum(
                1
                for _, has_pred, has_succ in neighbour_sides(
                    loop.graph, order
                )
                if not has_pred and not has_succ
            )
            assert orphans <= n_components + n_recurrences, loop.name

    def test_one_sided_unless_recurrence(self, population):
        """Acyclic loops: never both sides scheduled before a node."""
        machine = perfect_club_machine()
        for loop in population:
            analysis = compute_mii(loop.graph, machine)
            if any(not s.is_trivial for s in analysis.subgraphs):
                continue  # recurrence closers legitimately see both sides
            order = order_of(loop.graph, machine)
            for name, has_pred, has_succ in neighbour_sides(
                loop.graph, order
            ):
                assert not (has_pred and has_succ), (loop.name, name)

    def test_initial_hypernode_override(self):
        g = figure7_graph()
        result = hrms_order(
            g, machine=motivating_machine(), initial_hypernode="D"
        )
        assert result.order[0] == "D"
        assert sorted(result.order) == sorted(g.node_names())

    def test_unknown_initial_hypernode_rejected(self):
        with pytest.raises(UnknownOperationError) as info:
            hrms_order(
                figure7_graph(),
                machine=motivating_machine(),
                initial_hypernode="zzz",
            )
        assert info.value.name == "zzz"

    def test_initial_hypernode_in_another_component(self):
        g = (
            GraphBuilder().op("a").op("x").op("b").op("y")
            .edge("a", "b").edge("x", "y")
            .build()
        )
        result = hrms_order(
            g, machine=motivating_machine(), initial_hypernode="y"
        )
        # The first component keeps its default start; the second
        # starts from the override.
        assert result.order == ["a", "b", "y", "x"]

    def test_recurrence_nodes_ordered_before_connectors(self):
        order = order_of(figure10_graph())
        # The most restrictive recurrence {A, C, D, F} comes first.
        assert order[:4] == ["A", "C", "D", "F"]

    def test_backward_edges_identified(self):
        analysis = compute_mii(figure10_graph(), motivating_machine())
        keys = all_backward_edge_keys(analysis.subgraphs)
        assert ("F", "A", 1, "register") in keys
        assert ("M", "G", 1, "register") in keys
