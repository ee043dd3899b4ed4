"""Tests for the scheduling session.

Covers :meth:`SchedulingSession.mindist` (element-wise identical to a
whole-graph Floyd–Warshall across the driver's full II range, on graphs
from every QA diversity profile; memoized, infeasible IIs included;
reset by the O(1) mutation guard) and :class:`SchedulingSession` /
:class:`SessionCache` (shared analysis, per-thread scratch reuse, LRU
identity, executor integration).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    SchedulingSession,
    SessionCache,
    session_for,
    shared_session_cache,
)
from repro.engine.mindist import factorise, solve
from repro.graph.builder import GraphBuilder
from repro.machine.configs import perfect_club_machine
from repro.mii.analysis import compute_mii
from repro.qa.profiles import fuzz_profiles
from repro.schedulers.base import default_ii_limit
from repro.workloads.synthetic import random_ddg

PROFILES = {profile.name: profile for profile in fuzz_profiles()}


def recurrence_graph(latency=4, distance=1):
    b = GraphBuilder("rec")
    b.op("x", latency=latency).op("y", latency=1)
    b.edge("x", "y").edge("y", "x", distance=distance)
    return b.build()


def fresh_solve(graph, ii):
    """An independent whole-graph Floyd–Warshall at *ii* (no session
    state): ``(dist, names)`` or ``None``."""
    factors = factorise(graph)
    dist = solve(factors, ii)
    return None if dist is None else (dist, factors.names)


def session_of(graph):
    return SchedulingSession(graph, perfect_club_machine())


class TestMindistMatchesFloydWarshall:
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mindist_equals_solve_over_full_range(self, profile_name, seed):
        graph = PROFILES[profile_name].build(seed, prefix="sweeptest")
        machine = perfect_club_machine()
        try:
            analysis = compute_mii(graph, machine)
        except Exception:
            return  # circuit-limit blowup: not this test's concern
        limit = default_ii_limit(graph, analysis.mii)
        session = SchedulingSession(graph, machine, analysis)
        for ii in range(max(1, analysis.mii - 1), limit + 1):
            solved = session.mindist(ii)
            fresh = fresh_solve(graph, ii)
            if fresh is None:
                assert solved is None
                continue
            assert solved is not None
            assert not solved[0].flags.writeable
            assert np.array_equal(solved[0], fresh[0])
            assert solved[1] == fresh[1]


class TestInfeasibleIIs:
    def test_infeasible_ii_leaves_later_solves_exact(self):
        # The x→y→x cycle carries 5 cycles of latency over distance 1:
        # RecMII is 5, so II=4 has no matrix.
        graph = recurrence_graph(latency=4, distance=1)
        session = session_of(graph)
        assert session.mindist(4) is None
        assert session.sweep_stats()["fresh_solves"] == 1
        solved = session.mindist(5)
        assert solved is not None
        assert np.array_equal(solved[0], fresh_solve(graph, 5)[0])

    def test_infeasible_self_edge(self):
        b = GraphBuilder("selfie")
        b.op("x", latency=5)
        b.edge("x", "x", distance=1)
        graph = b.build()
        session = session_of(graph)
        # II=4 violates the self-dependence (5 - 4*1 > 0).
        assert session.mindist(4) is None
        assert session.mindist(4) is None
        assert session.sweep_stats() == {"fresh_solves": 1, "memo_hits": 1}
        assert session.mindist(5) is not None


class TestMemoAndMutation:
    def test_memo_absorbs_repeat_queries(self):
        graph = recurrence_graph()
        session = session_of(graph)
        first = session.mindist(5)
        again = session.mindist(5)
        assert first[0] is again[0]
        assert session.sweep_stats() == {"fresh_solves": 1, "memo_hits": 1}

    def test_memo_is_a_small_lru(self):
        graph = recurrence_graph()
        session = session_of(graph)
        first = session.mindist(5)
        for ii in range(6, 14):  # eight newer IIs evict II=5
            session.mindist(ii)
        assert session.mindist(5)[0] is not first[0]
        assert session.sweep_stats()["fresh_solves"] == 10

    def test_graph_mutation_resets_the_memo(self):
        from repro.graph.edges import Edge

        graph = recurrence_graph()
        session = session_of(graph)
        session.mindist(5)
        session.mindist(6)
        graph.add_edge(Edge("x", "y", distance=2))
        solved = session.mindist(6)
        assert np.array_equal(solved[0], fresh_solve(graph, 6)[0])


class TestConcurrentMindist:
    def test_racing_threads_share_one_solve_per_ii(self):
        import sys
        import threading

        graph = random_ddg(random.Random(4), 30, name="race30")
        mii = SchedulingSession(graph, perfect_club_machine()).analysis.mii
        iis = list(range(mii, mii + 8))  # fits the memo: no eviction
        threads_per_round = 8

        def race(session):
            start = threading.Barrier(threads_per_round)
            results: list = []
            errors: list = []

            def worker(offset):
                try:
                    start.wait(timeout=30)
                    for k in range(len(iis)):
                        ii = iis[(offset + k) % len(iis)]
                        results.append((ii, session.mindist(ii)))
                except Exception as exc:  # surfaced by the asserts below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(threads_per_round)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            return results

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                session = session_of(graph)
                results = race(session)
                stats = session.sweep_stats()
                # A check-then-act race would solve some II twice.
                assert stats["fresh_solves"] == len(iis)
                assert stats["memo_hits"] == len(results) - len(iis)
                first = {}
                for ii, solved in results:
                    assert solved is first.setdefault(ii, solved)
        finally:
            sys.setswitchinterval(previous)
        for ii, solved in first.items():
            assert np.array_equal(solved[0], fresh_solve(graph, ii)[0])


class TestMutationGuard:
    """``DependenceGraph.version`` moves on every real mutation, and the
    session re-factorises on it instead of re-fingerprinting the graph."""

    @staticmethod
    def warmed_session(graph):
        session = session_of(graph)
        session.mindist(5)
        session.mindist(6)
        return session

    @staticmethod
    def assert_fresh(session, graph, iis=(5, 6, 7)):
        for ii in iis:
            solved, fresh = session.mindist(ii), fresh_solve(graph, ii)
            assert (solved is None) == (fresh is None)
            if fresh is not None:
                assert np.array_equal(solved[0], fresh[0])
                assert solved[1] == fresh[1]

    def test_add_operation_resets_the_memo(self):
        from repro.graph.edges import Edge
        from repro.graph.ops import Operation

        graph = recurrence_graph()
        session = self.warmed_session(graph)
        graph.add_operation(Operation("z", latency=3))
        self.assert_fresh(session, graph)
        assert session.mindist(5)[0].shape == (3, 3)
        graph.add_edge(Edge("y", "z"))
        self.assert_fresh(session, graph)

    def test_add_edge_resets_the_memo(self):
        from repro.graph.edges import DependenceKind, Edge

        graph = recurrence_graph()
        session = self.warmed_session(graph)
        graph.add_edge(
            Edge("y", "x", distance=2, kind=DependenceKind.MEMORY)
        )
        graph.add_edge(Edge("x", "x", distance=1))  # self-loop: 4 - ii
        self.assert_fresh(session, graph, iis=(3, 5, 6, 7))

    def test_remove_edge_resets_the_memo(self):
        graph = recurrence_graph()
        session = self.warmed_session(graph)
        (back,) = [e for e in graph.edges() if e.distance == 1]
        graph.remove_edge(back)
        self.assert_fresh(session, graph, iis=(1, 5, 6))
        assert session.mindist(1) is not None  # the recurrence is gone

    def test_remove_operation_resets_the_memo(self):
        from repro.graph.ops import Operation

        graph = recurrence_graph()
        graph.add_operation(Operation("lone"))  # no edges to remove
        session = self.warmed_session(graph)
        graph.remove_operation("lone")
        self.assert_fresh(session, graph)
        assert session.mindist(5)[0].shape == (2, 2)
        graph.remove_operation("y")
        self.assert_fresh(session, graph)
        assert session.mindist(5)[1] == ["x"]

    def test_only_real_mutations_move_the_version(self):
        from repro.graph.edges import Edge

        graph = recurrence_graph()
        version = graph.version
        (edge,) = [e for e in graph.edges() if e.distance == 0]
        graph.add_edge(Edge(edge.src, edge.dst))  # duplicate: ignored
        graph.remove_edge(Edge("y", "x", distance=7))  # absent
        assert graph.version == version
        session = self.warmed_session(graph)
        before = session.sweep_stats()
        assert session.mindist(5) is not None
        assert session.sweep_stats()["memo_hits"] == before["memo_hits"] + 1

    def test_copy_has_an_independent_version(self):
        from repro.graph.edges import Edge

        graph = recurrence_graph()
        clone = graph.copy()
        session = self.warmed_session(graph)
        version = graph.version
        clone.add_edge(Edge("x", "y", distance=3))
        clone.remove_operation("y")
        assert graph.version == version
        hits = session.sweep_stats()["memo_hits"]
        session.mindist(6)
        assert session.sweep_stats()["memo_hits"] == hits + 1  # no reset
        clone_version = clone.version
        graph.add_edge(Edge("x", "y", distance=3))
        assert graph.version == version + 1
        assert clone.version == clone_version

    @pytest.mark.parametrize(
        "scheduler",
        ["hrms", "sms", "slack", "ims", "topdown", "bottomup", "frlc"],
    )
    def test_mutated_graph_schedules_like_a_fresh_session(self, scheduler):
        """Every graph-derived field follows the version guard, not only
        the MinDist memo: the session's digest and MII analysis, and the
        graph's indexed view the schedulers read (positions, latencies,
        adjacency)."""
        from repro.graph.edges import Edge
        from repro.graph.ops import Operation
        from repro.machine.configs import govindarajan_machine
        from repro.schedulers.registry import make_scheduler
        from repro.workloads.govindarajan import govindarajan_suite

        machine = govindarajan_machine()
        (graph,) = [
            loop.graph for loop in govindarajan_suite() if loop.name == "liv1"
        ]
        session = SchedulingSession(graph, machine)
        make_scheduler(scheduler).schedule(graph, machine, session=session)
        digest = session.digest
        view = graph.indexed()
        graph.add_operation(Operation("extra", latency=3, opclass="fdiv"))
        graph.add_edge(Edge("a2", "extra"))
        mutated = make_scheduler(scheduler).schedule(
            graph, machine, session=session
        )
        indexed = graph.indexed()
        assert indexed is not view and "extra" not in view.position
        extra = indexed.position["extra"]
        assert indexed.latencies[extra] == 3
        assert indexed.predecessors[extra] == (indexed.position["a2"],)
        fresh = make_scheduler(scheduler).schedule(graph, machine)
        assert (mutated.ii, mutated.start) == (fresh.ii, fresh.start)
        assert "extra" in mutated.start
        assert session.analysis.mii == compute_mii(graph, machine).mii
        assert session.digest != digest


class TestSchedulingSession:
    def test_analysis_computed_once(self):
        graph = random_ddg(random.Random(11), 18, name="sess18")
        session = SchedulingSession(graph, perfect_club_machine())
        assert session.analysis is session.analysis

    def test_mindist_matches_module_function(self):
        graph = random_ddg(random.Random(11), 18, name="sess18")
        session = SchedulingSession(graph, perfect_club_machine())
        mii = session.analysis.mii
        for ii in (mii, mii + 1, mii + 2):
            dist, names = session.mindist(ii)
            ref_dist, ref_names = fresh_solve(graph, ii)
            assert np.array_equal(dist, ref_dist)
            assert names == ref_names

    def test_scratch_reuse_same_ii(self):
        graph = random_ddg(random.Random(11), 18, name="sess18")
        session = SchedulingSession(graph, perfect_club_machine())
        ii = session.analysis.mii
        mrt = session.mrt(ii)
        mrt.place(graph.operation(graph.first_node), 0)
        again = session.mrt(ii)
        assert again is mrt  # reset in place, not reallocated
        assert not again.is_placed(graph.operation(graph.first_node))
        assert session.mrt(ii + 1) is not mrt

    def test_start_bounds_reset_reuse(self):
        graph = random_ddg(random.Random(11), 18, name="sess18")
        session = SchedulingSession(graph, perfect_club_machine())
        ii = session.analysis.mii
        bounds = session.start_bounds(ii)
        bounds.place(0, 3)
        again = session.start_bounds(ii)
        assert again is bounds
        assert all(
            again.early_start(i) is None for i in range(len(graph))
        )

    def test_cyclic_asap_fresh_dict_per_call(self):
        graph = random_ddg(random.Random(11), 18, name="sess18")
        session = SchedulingSession(graph, perfect_club_machine())
        ii = session.analysis.mii
        first = session.cyclic_asap(ii)
        second = session.cyclic_asap(ii)
        assert first == second and first is not second


class TestMindistTracing:
    def test_fresh_solves_emit_mindist_spans_under_search(self):
        """Every fresh solve of the session is one ``mindist.solve``
        span under ``scheduler.search``; memo hits are not."""
        from repro.core.scheduler import HRMSScheduler
        from repro.obs import trace

        graph = random_ddg(random.Random(22), 12, name="traced12")
        machine = perfect_club_machine()
        session = SchedulingSession(graph, machine)
        collector = trace.arm()
        try:
            root = trace.begin_root("request", trace.new_trace_id())
            with trace.attach(root.trace_id, root.span_id):
                schedule = HRMSScheduler().schedule(
                    graph, machine, session=session
                )
            trace.finish(root)
        finally:
            trace.disarm()
        assert schedule.stats.attempts > 1
        spans = collector.trace(root.trace_id)
        (search,) = [s for s in spans if s["name"] == "scheduler.search"]
        solves = [s for s in spans if s["name"] == "mindist.solve"]
        assert len(solves) == session.sweep_stats()["fresh_solves"]
        assert len(solves) >= schedule.stats.attempts
        assert all(s["parent_id"] == search["span_id"] for s in solves)
        assert all(s["attrs"]["ops"] == len(graph) for s in solves)
        assert all(s["attrs"]["ii"] >= schedule.stats.mii for s in solves)


class TestSessionCache:
    def test_equal_graphs_share_a_session(self):
        machine = perfect_club_machine()
        cache = SessionCache()
        one = random_ddg(random.Random(2), 12, name="twin")
        two = random_ddg(random.Random(2), 12, name="twin")
        assert one is not two
        assert cache.get(one, machine) is cache.get(two, machine)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_distinct_machines_get_distinct_sessions(self):
        from repro.machine.configs import govindarajan_machine

        cache = SessionCache()
        graph = recurrence_graph()
        a = cache.get(graph, perfect_club_machine())
        b = cache.get(graph, govindarajan_machine())
        assert a is not b

    def test_lru_eviction(self):
        machine = perfect_club_machine()
        cache = SessionCache(max_sessions=2)
        graphs = [
            random_ddg(random.Random(i), 8, name=f"lru{i}")
            for i in range(3)
        ]
        first = cache.get(graphs[0], machine)
        cache.get(graphs[1], machine)
        cache.get(graphs[2], machine)  # evicts graphs[0]
        assert cache.get(graphs[0], machine) is not first

    def test_shared_helper_round_trips(self):
        graph = recurrence_graph()
        machine = perfect_club_machine()
        session = session_for(graph, machine)
        assert session_for(graph, machine) is session
        assert shared_session_cache().stats()["sessions"] >= 1


class TestExecutorSessions:
    def test_schedulers_share_one_session_per_loop(self, tmp_path):
        from repro.graph.serialization import graph_to_dict
        from repro.service.executor import SchedulingExecutor
        from repro.service.store import ArtifactStore

        executor = SchedulingExecutor(ArtifactStore(tmp_path / "store"))
        graph = random_ddg(random.Random(9), 14, name="exec14")
        wire = graph_to_dict(graph)
        for scheduler in ("hrms", "sms", "topdown"):
            result = executor.execute_request(
                "schedule",
                {"kind": "schedule", "graph": wire,
                 "scheduler": scheduler},
            )
            assert result["ii"] >= result["mii"]
        stats = executor.sessions.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
