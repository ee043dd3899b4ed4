"""Round-trip tests for graph serialisation."""

import pytest

from repro.errors import GraphError
from repro.frontend import compile_source, kernel_names, kernel_source
from repro.graph.serialization import (
    dump_graph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    loads_graph,
)
from repro.machine.configs import perfect_club_machine
from repro.schedule.maxlive import max_live
from repro.schedulers.registry import make_scheduler
from repro.workloads.govindarajan import govindarajan_suite
from repro.workloads.motivating import motivating_example


def graphs_equal(a, b) -> bool:
    if a.node_names() != b.node_names():
        return False
    if {e.key for e in a.edges()} != {e.key for e in b.edges()}:
        return False
    return all(
        a.operation(n) == b.operation(n) for n in a.node_names()
    )


class TestRoundTrip:
    def test_string_round_trip(self):
        g = motivating_example()
        assert graphs_equal(g, loads_graph(dumps_graph(g)))

    def test_file_round_trip(self, tmp_path):
        g = motivating_example()
        path = tmp_path / "graph.json"
        dump_graph(g, path)
        assert graphs_equal(g, load_graph(path))

    def test_suite_round_trips(self):
        for loop in govindarajan_suite():
            clone = graph_from_dict(graph_to_dict(loop.graph))
            assert graphs_equal(loop.graph, clone), loop.name

    def test_store_flag_preserved(self):
        g = motivating_example()
        clone = loads_graph(dumps_graph(g))
        assert clone.operation("C").is_store
        assert clone.operation("G").is_store

    def test_unknown_version_rejected(self):
        data = graph_to_dict(motivating_example())
        data["format"] = 99
        with pytest.raises(GraphError):
            graph_from_dict(data)


#: Malformed wire graphs and the words their GraphError must carry.
MALFORMED = {
    "body-not-object": (["a"], "JSON object"),
    "zero-latency": (
        {"operations": [{"name": "a"}, {"name": "b", "latency": 0}]},
        "operation 1",
    ),
    "non-int-latency": (
        {"operations": [{"name": "a", "latency": "fast"}]},
        "operation 0",
    ),
    "null-latency": (
        {"operations": [{"name": "a", "latency": None}]},
        "operation 0",
    ),
    "missing-name": ({"operations": [{"latency": 2}]}, "'name'"),
    "operation-not-object": ({"operations": ["a"]}, "operation 0"),
    "operations-not-list": ({"operations": 3}, "operations"),
    "edges-not-list": ({"operations": [], "edges": 3}, "edges"),
    "no-operations": ({"operations": []}, "at least one operation"),
    "operations-missing": ({"name": "empty"}, "at least one operation"),
    "negative-distance": (
        {
            "operations": [{"name": "a"}, {"name": "b"}],
            "edges": [
                {"src": "a", "dst": "b"},
                {"src": "b", "dst": "a", "distance": -1},
            ],
        },
        "edge 1",
    ),
    "unknown-kind": (
        {
            "operations": [{"name": "a"}, {"name": "b"}],
            "edges": [{"src": "a", "dst": "b", "kind": "bogus"}],
        },
        "edge 0",
    ),
    "missing-endpoint": (
        {"operations": [{"name": "a"}], "edges": [{"src": "a"}]},
        "'dst'",
    ),
    "unknown-endpoint": (
        {"operations": [{"name": "a"}], "edges": [{"src": "a", "dst": "z"}]},
        "'z'",
    ),
}


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_graph_error(self, case):
        data, words = MALFORMED[case]
        with pytest.raises(GraphError, match=words):
            graph_from_dict(data)


@pytest.mark.parametrize("kernel", kernel_names())
def test_compiled_kernel_round_trips(kernel):
    """Compiled kernels carry memory and control edges, loop-carried
    distances and stores: all of it survives the dict format, and the
    rebuilt graph schedules to the same II and MaxLive."""
    graph = compile_source(kernel_source(kernel), name=kernel).graph
    clone = graph_from_dict(graph_to_dict(graph))
    assert clone.node_names() == graph.node_names()
    assert sorted(e.key for e in clone.edges()) == sorted(
        e.key for e in graph.edges()
    )
    for name in graph.node_names():
        original, copy = graph.operation(name), clone.operation(name)
        assert copy.latency == original.latency
        assert copy.opclass == original.opclass
        assert copy.produces_value == original.produces_value
    machine = perfect_club_machine()
    hrms = make_scheduler("hrms")
    original_schedule = hrms.schedule(graph, machine)
    clone_schedule = hrms.schedule(clone, machine)
    assert clone_schedule.ii == original_schedule.ii
    assert max_live(clone_schedule) == max_live(original_schedule)
