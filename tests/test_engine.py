"""Tests for the scheduling-engine performance layer.

Covers the pure MinDist solve (NO_PATH saturation, read-only results,
equal graphs giving equal matrices, II scaling), the sweep's handling
of a graph mutated between queries, the structural fingerprint, and the
property that the vectorized EarlyStart/LateStart bounds match the
seed's dict-loop formulation on random DDGs and random placement orders.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    NO_PATH,
    MinDistSweep,
    SchedulingSession,
    StartBounds,
    graph_fingerprint,
)
from repro.engine.mindist import factorise, solve
from repro.graph.builder import GraphBuilder
from repro.machine.configs import motivating_machine
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
    """The pure MinDist solve at *ii*."""
    return solve(factorise(graph), ii)


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


class TestSweepContract:
    def test_infeasible_ii_result_is_memoized(self):
        g = recurrence_graph(latency=5, distance=1)  # RecMII = 6
        sweep = MinDistSweep(g)
        assert sweep.solve(5) is None
        assert sweep.solve(5) is None
        stats = sweep.stats()
        assert stats["fresh_solves"] == 1 and stats["memo_hits"] == 1

    def test_mutation_invalidates_cache(self):
        b = GraphBuilder("mut")
        b.op("a", latency=2).op("b", latency=1)
        b.edge("a", "b")
        g = b.build()
        sweep = MinDistSweep(g)
        before = sweep.solve(3)
        assert before is not None
        assert before[0][0, 1] == 2
        assert before[0][1, 0] == NO_PATH

        from repro.graph.edges import Edge

        g.add_edge(Edge("b", "a", distance=1))
        after = sweep.solve(3)
        assert after is not None
        assert after[0][1, 0] == -2  # 1 - 1*3: the new recurrence edge
        assert after[0] is not before[0]
        # The new circuit also makes small IIs infeasible.
        assert sweep.solve(1) is None

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
    solved = solve(factors, ii)
    if solved is None:
        ii = ii + 64  # large II is feasible for any generator output
        solved = solve(factors, ii)
        assert solved is not None
    dist, names = solved
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
