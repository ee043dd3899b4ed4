"""Tests for the scheduling-engine performance layer.

Covers the pure MinDist solve (NO_PATH saturation, read-only results,
equal graphs giving equal matrices, II scaling), the session's handling
of a graph mutated between queries, the structural fingerprint, and the
property that the vectorized EarlyStart/LateStart bounds match the
seed's dict-loop formulation on random DDGs and random placement orders.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    NO_PATH,
    SchedulingSession,
    StartBounds,
    graph_fingerprint,
)
from repro.engine.mindist import factorise, solve
from repro.engine.windows import CYCLE_LIMIT
from repro.errors import SchedulingError
from repro.graph.builder import GraphBuilder
from repro.graph.ddg import DependenceGraph
from repro.machine.configs import motivating_machine
from repro.schedulers.base import default_ii_limit
from repro.workloads.synthetic import random_ddg


def chain_graph():
    b = GraphBuilder("chain")
    b.op("a", latency=2).op("b", latency=3).op("c", latency=1)
    b.edge("a", "b").edge("b", "c")
    return b.build()


def recurrence_graph(latency=4, distance=1):
    b = GraphBuilder("rec")
    b.op("x", latency=latency).op("y", latency=1)
    b.edge("x", "y").edge("y", "x", distance=distance)
    return b.build()


def mindist(graph, ii):
    """The pure MinDist solve at *ii*: ``(dist, names)`` or ``None``."""
    factors = factorise(graph)
    dist = solve(factors, ii)
    return None if dist is None else (dist, factors.names)


class TestPureSolve:
    def test_distinct_ii_are_distinct_entries(self):
        g = recurrence_graph()
        a = mindist(g, 5)
        b = mindist(g, 6)
        assert a is not None and b is not None
        assert a[0] is not b[0]
        # The recurrence edge weight shrinks by 1 per extra II.
        assert a[0][1, 0] == b[0][1, 0] + 1

    def test_fingerprint_distinguishes_opclass_and_value_flag(self):
        # Same names, latencies and edges — different resource binding.
        # These schedule differently, so their fingerprints must differ
        # (the parallel runner keys its per-loop result cache on them).
        from repro.graph.ops import FADD, FMUL

        def build(opclass, produces_value=True):
            b = GraphBuilder("twin")
            for i in range(3):
                b.op(
                    f"fx{i}", opclass=opclass, latency=4,
                    produces_value=produces_value,
                )
            return b.build()

        adds, muls = build(FADD), build(FMUL)
        assert graph_fingerprint(adds) != graph_fingerprint(muls)
        stores = build(FADD, produces_value=False)
        assert graph_fingerprint(adds) != graph_fingerprint(stores)

    def test_fresh_equal_graph_gets_equal_matrix(self):
        g1, g2 = chain_graph(), chain_graph()
        assert graph_fingerprint(g1) == graph_fingerprint(g2)
        r1, r2 = mindist(g1, 3), mindist(g2, 3)
        assert r1[0] is not r2[0]
        assert np.array_equal(r1[0], r2[0])

    def test_no_path_saturation_preserved(self):
        b = GraphBuilder("sat")
        # Two unconnected chains: cross-pairs must stay exactly NO_PATH.
        b.op("a", latency=1).op("b", latency=1).op("c", latency=1)
        b.op("d", latency=1)
        b.edge("a", "b").edge("b", "c")
        g = b.build()
        dist, names = mindist(g, 1)
        i, j = names.index("a"), names.index("d")
        assert dist[i, j] == NO_PATH
        assert dist[j, i] == NO_PATH
        # Chained reachable entries are genuine path lengths.
        assert dist[names.index("a"), names.index("c")] == 2

    def test_matrix_is_read_only(self):
        dist, _ = mindist(chain_graph(), 1)
        with pytest.raises(ValueError):
            dist[0, 0] = 7


class TestSessionMindistContract:
    def test_infeasible_ii_result_is_memoized(self):
        g = recurrence_graph(latency=5, distance=1)  # RecMII = 6
        session = SchedulingSession(g, motivating_machine())
        assert session.mindist(5) is None
        assert session.mindist(5) is None
        stats = session.sweep_stats()
        assert stats["fresh_solves"] == 1 and stats["memo_hits"] == 1

    def test_mutation_invalidates_cache(self):
        b = GraphBuilder("mut")
        b.op("a", latency=2).op("b", latency=1)
        b.edge("a", "b")
        g = b.build()
        session = SchedulingSession(g, motivating_machine())
        before = session.mindist(3)
        assert before is not None
        assert before[0][0, 1] == 2
        assert before[0][1, 0] == NO_PATH

        from repro.graph.edges import Edge

        g.add_edge(Edge("b", "a", distance=1))
        after = session.mindist(3)
        assert after is not None
        assert after[0][1, 0] == -2  # 1 - 1*3: the new recurrence edge
        assert after[0] is not before[0]
        # The new circuit also makes small IIs infeasible.
        assert session.mindist(1) is None

    def test_cyclic_asap_returns_fresh_dict(self):
        session = SchedulingSession(chain_graph(), motivating_machine())
        a = session.cyclic_asap(1)
        b = session.cyclic_asap(1)
        assert a == {"a": 0, "b": 2, "c": 5}
        assert a is not b
        a["a"] = 99
        assert session.cyclic_asap(1)["a"] == 0


# ---------------------------------------------------------------------------
# Vectorized EarlyStart/LateStart vs the seed's dict-loop formulation.
# ---------------------------------------------------------------------------
def dict_loop_early_start(dist, index, start, name):
    """The seed's O(scheduled) EarlyStart loop (reference)."""
    i = index[name]
    bound = None
    for other, cycle in start.items():
        weight = dist[index[other], i]
        if weight <= NO_PATH // 2:
            continue
        candidate = cycle + int(weight)
        bound = candidate if bound is None else max(bound, candidate)
    return bound


def dict_loop_late_start(dist, index, start, name):
    """The seed's O(scheduled) LateStart loop (reference)."""
    i = index[name]
    bound = None
    for other, cycle in start.items():
        weight = dist[i, index[other]]
        if weight <= NO_PATH // 2:
            continue
        candidate = cycle - int(weight)
        bound = candidate if bound is None else min(bound, candidate)
    return bound


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=2, max_value=24),
)
@settings(max_examples=60, deadline=None)
def test_start_bounds_match_dict_loops(seed, size):
    rng = random.Random(seed)
    graph = random_ddg(rng, size, name=f"sb{seed}")
    ii = rng.randint(1, 40)
    factors = factorise(graph)
    dist = solve(factors, ii)
    if dist is None:
        ii = ii + 64  # large II is feasible for any generator output
        dist = solve(factors, ii)
        assert dist is not None
    names = factors.names
    index = {name: i for i, name in enumerate(names)}

    bounds = StartBounds(dist)
    start: dict[str, int] = {}
    order = list(names)
    rng.shuffle(order)
    for name in order:
        es_ref = dict_loop_early_start(dist, index, start, name)
        ls_ref = dict_loop_late_start(dist, index, start, name)
        assert bounds.early_start(index[name]) == es_ref
        assert bounds.late_start(index[name]) == ls_ref
        cycle = rng.randint(-5, 3 * ii)
        start[name] = cycle
        bounds.place(index[name], cycle)


def islands_graph(rng, sizes):
    """Several random DDGs side by side: no path joins two components."""
    graph = DependenceGraph("islands")
    for part_no, size in enumerate(sizes):
        part = random_ddg(rng, size, name=f"part{part_no}")
        prefix = f"c{part_no}_"
        for op in part.operations():
            graph.add_operation(dataclasses.replace(op, name=prefix + op.name))
        for edge in part.edges():
            graph.add_edge(
                dataclasses.replace(
                    edge, src=prefix + edge.src, dst=prefix + edge.dst
                )
            )
    return graph


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(
        st.integers(min_value=2, max_value=10), min_size=2, max_size=4
    ),
)
@settings(max_examples=40, deadline=None)
def test_start_bounds_encoding_across_ii_limit_and_components(seed, sizes):
    """The value-encoded "no constraint" stays exact for placements
    anywhere in ``±default_ii_limit``, for unreachable pairs, and across
    ``reset()`` and a second placement order over the same matrix."""
    rng = random.Random(seed)
    graph = islands_graph(rng, sizes)
    ii = rng.randint(1, 40)
    factors = factorise(graph)
    dist = solve(factors, ii)
    if dist is None:
        ii = ii + 64
        dist = solve(factors, ii)
        assert dist is not None
    names = factors.names
    assert (dist <= NO_PATH // 2).any()  # unreachable pairs exist
    index = {name: i for i, name in enumerate(names)}
    limit = default_ii_limit(graph, ii)

    bounds = StartBounds(dist)
    for _ in range(2):
        start: dict[str, int] = {}
        order = list(names)
        rng.shuffle(order)
        for name in order:
            assert bounds.early_start(index[name]) == dict_loop_early_start(
                dist, index, start, name
            )
            assert bounds.late_start(index[name]) == dict_loop_late_start(
                dist, index, start, name
            )
            cycle = rng.choice((-limit, limit, rng.randint(-limit, limit)))
            start[name] = cycle
            bounds.place(index[name], cycle)
        bounds.reset()


def test_start_bounds_reject_cycles_outside_exact_range():
    dist, names = mindist(chain_graph(), 1)
    a, b = names.index("a"), names.index("b")
    bounds = StartBounds(dist)
    for cycle in (CYCLE_LIMIT, -CYCLE_LIMIT, 10**12):
        with pytest.raises(SchedulingError):
            bounds.place(a, cycle)
    assert bounds.early_start(b) is None  # rejected placements left no trace
    for cycle in (CYCLE_LIMIT - 1, -(CYCLE_LIMIT - 1)):
        bounds.reset()
        bounds.place(a, cycle)
        assert bounds.early_start(b) == cycle + int(dist[a, b])
        assert bounds.late_start(b) is None  # b reaches nothing placed
        bounds.reset()
        bounds.place(b, cycle)
        assert bounds.late_start(a) == cycle - int(dist[a, b])
        assert bounds.early_start(a) is None
