"""The indexed view of a dependence graph (``DependenceGraph.indexed``).

One view per graph version: reused while the graph is unchanged, rebuilt
after every real mutation, and always equal to what the name-keyed graph
queries say.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.edges import DependenceKind, Edge
from repro.graph.ops import Operation
from repro.qa.profiles import fuzz_profiles

PROFILES = {profile.name: profile for profile in fuzz_profiles()}


def sample():
    return (
        GraphBuilder("view")
        .op("a", latency=2)
        .op("b", deps=("a",))
        .op("c", latency=3, deps=("b",))
        .edge("c", "a", distance=1)
        .edge("b", "b", distance=1)
        .build()
    )


def assert_matches(graph):
    """The view agrees with every name-keyed query of *graph*."""
    view = graph.indexed()
    names = graph.node_names()
    assert view.names == tuple(names)
    assert view.position == {name: i for i, name in enumerate(names)}
    assert view.latencies.tolist() == [
        graph.operation(name).latency for name in names
    ]
    assert view.edges == tuple(graph.edges())
    assert view.edge_src.tolist() == [
        view.position[edge.src] for edge in view.edges
    ]
    assert view.edge_dst.tolist() == [
        view.position[edge.dst] for edge in view.edges
    ]
    assert view.edge_distance.tolist() == [
        edge.distance for edge in view.edges
    ]
    src = view.edge_src.tolist()
    assert src == sorted(src)  # grouped by source in program order
    for i, name in enumerate(names):
        assert view.successors[i] == tuple(sorted(
            view.position[s] for s in graph.successors(name) if s != name
        ))
        assert view.predecessors[i] == tuple(sorted(
            view.position[p] for p in graph.predecessors(name) if p != name
        ))
    for array in (
        view.latencies, view.edge_src, view.edge_dst, view.edge_distance
    ):
        assert not array.flags.writeable


class TestCache:
    def test_unchanged_version_returns_the_same_view(self):
        graph = sample()
        view = graph.indexed()
        graph.add_edge(Edge("a", "b"))  # duplicate: not a mutation
        graph.remove_edge(Edge("a", "c"))  # absent: not a mutation
        assert graph.indexed() is view

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_operation(Operation("d", latency=4)),
            lambda g: g.add_edge(
                Edge("a", "c", distance=2, kind=DependenceKind.MEMORY)
            ),
            lambda g: g.remove_edge(Edge("c", "a", distance=1)),
            lambda g: g.remove_operation("b"),
        ],
        ids=["add_operation", "add_edge", "remove_edge", "remove_operation"],
    )
    def test_every_mutation_yields_a_fresh_view(self, mutate):
        graph = sample()
        view = graph.indexed()
        mutate(graph)
        fresh = graph.indexed()
        assert fresh is not view
        assert graph.indexed() is fresh
        assert_matches(graph)

    def test_copies_start_without_a_view(self):
        graph = sample()
        view = graph.indexed()
        for clone in (graph.copy(), graph.subgraph(["a", "b"])):
            assert clone._indexed is None
            assert clone.indexed() is not view
            assert_matches(clone)
        assert graph.indexed() is view

    def test_self_edges_and_parallel_edges(self):
        graph = sample()
        graph.add_edge(Edge("a", "b", kind=DependenceKind.MEMORY))
        view = graph.indexed()
        assert view.successors == ((1,), (2,), (0,))
        assert view.predecessors == ((2,), (0,), (1,))
        assert len(view.edges) == graph.edge_count()
        # Equal neighbour tuples are one object.
        assert view.successors[0] is view.predecessors[2]

    def test_concurrent_readers_agree(self):
        import sys
        import threading

        graph = sample()
        views = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                graph.add_operation(Operation(f"x{len(graph)}"))
                threads = [
                    threading.Thread(target=lambda: views.append(
                        (len(graph), graph.indexed())
                    ))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(views) == 160
        for size, view in views:
            assert len(view.names) == size
        assert graph.indexed().names == tuple(graph.node_names())

    def test_empty_graph(self):
        view = GraphBuilder("empty").build().indexed()
        assert view.names == () and view.successors == ()
        assert view.latencies.size == view.edge_src.size == 0


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_view_matches_the_graph_queries_on_every_profile(profile_name, seed):
    graph = PROFILES[profile_name].build(seed, prefix="indexed")
    assert_matches(graph)
