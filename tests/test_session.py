"""Tests for the II-sweep engine core.

Covers :class:`MinDistSweep` (the incremental advance is element-wise
identical to a fresh Floyd–Warshall across the driver's full II range,
on graphs from every QA diversity profile; the fresh-solve fallback
fires on the infeasible-II path and on stale slopes) and
:class:`SchedulingSession` / :class:`SessionCache` (shared analysis,
per-thread scratch reuse, LRU identity, executor integration).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    MinDistSweep,
    SchedulingSession,
    SessionCache,
    session_for,
    shared_session_cache,
)
from repro.engine.mindist import factorise, solve
from repro.engine.sweep import SweepCrossCheckError
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
    """An independent fresh Floyd–Warshall at *ii* (no sweep state)."""
    return solve(factorise(graph), ii)


class TestSweepMatchesFreshSolves:
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_incremental_equals_fresh_over_full_range(
        self, profile_name, seed
    ):
        graph = PROFILES[profile_name].build(seed, prefix="sweeptest")
        machine = perfect_club_machine()
        try:
            analysis = compute_mii(graph, machine)
        except Exception:
            return  # circuit-limit blowup: not this test's concern
        limit = default_ii_limit(graph, analysis.mii)
        # cross_check=True re-solves after every incremental advance and
        # raises on any element-wise mismatch; the explicit comparison
        # below additionally covers the fresh / memoized paths.
        sweep = MinDistSweep(graph, cross_check=True)
        for ii in range(max(1, analysis.mii - 1), limit + 1):
            swept = sweep.solve(ii)
            fresh = fresh_solve(graph, ii)
            if fresh is None:
                assert swept is None
                continue
            assert swept is not None
            assert np.array_equal(swept[0], fresh[0])
            assert swept[1] == fresh[1]

    def test_long_sweep_is_mostly_incremental(self):
        graph = random_ddg(random.Random(7), 24, name="sweep24")
        start = compute_mii(graph, perfect_club_machine()).mii
        sweep = MinDistSweep(graph)
        for ii in range(start, start + 20):
            assert sweep.solve(ii) is not None
        stats = sweep.stats()
        # Base solve + one slope-augmented solve per (re)base; the rest
        # of the ladder must ride the O(n²) advance.
        assert stats["incremental_steps"] >= 15
        assert stats["fresh_solves"] <= 5


class TestSweepFallback:
    def test_infeasible_ii_is_fresh_and_leaves_state_clean(self):
        # The x→y→x cycle carries 5 cycles of latency over distance 1:
        # RecMII is 5, so II=4 has no matrix.
        graph = recurrence_graph(latency=4, distance=1)
        sweep = MinDistSweep(graph)
        assert sweep.solve(4) is None
        stats = sweep.stats()
        assert stats["fresh_solves"] == 1
        assert stats["incremental_steps"] == 0
        # The infeasible solve must not have adopted a sweep base: the
        # next feasible request is a fresh solve, not an advance from
        # a non-existent matrix — and it must be exact.
        solved = sweep.solve(5)
        assert solved is not None
        assert np.array_equal(solved[0], fresh_solve(graph, 5)[0])
        assert sweep.stats()["incremental_steps"] == 0

    def test_infeasible_self_edge_short_circuits(self):
        b = GraphBuilder("selfie")
        b.op("x", latency=5)
        b.edge("x", "x", distance=1)
        graph = b.build()
        sweep = MinDistSweep(graph)
        # II=4 violates the self-dependence (5 - 4*1 > 0): rejected
        # before any solving happens at all.
        assert sweep.solve(4) is None
        assert sweep.stats()["fresh_solves"] == 0
        assert sweep.solve(5) is not None

    def test_stale_slope_triggers_fallback_not_wrong_answer(self):
        graph = random_ddg(random.Random(3), 20, name="fallback20")
        start = compute_mii(graph, perfect_club_machine()).mii
        sweep = MinDistSweep(graph)
        sweep.solve(start)
        sweep.solve(start + 1)  # slope-augmented rebase
        assert sweep._slope is not None
        # Corrupt the slopes: the shifted candidate goes stale, the
        # verification pass must catch it and fall back to a fresh
        # solve instead of returning a wrong matrix.
        sweep._slope = sweep._slope + 1
        solved = sweep.solve(start + 2)
        assert solved is not None
        assert np.array_equal(solved[0], fresh_solve(graph, start + 2)[0])
        assert sweep.stats()["fallbacks"] == 1
        # The fallback re-based with healthy slopes: the sweep advances
        # incrementally again.
        before = sweep.stats()["incremental_steps"]
        assert sweep.solve(start + 3) is not None
        assert sweep.stats()["incremental_steps"] == before + 1

    def test_cross_check_raises_on_forced_divergence(self):
        graph = random_ddg(random.Random(5), 16, name="diverge16")
        start = compute_mii(graph, perfect_club_machine()).mii
        sweep = MinDistSweep(graph, cross_check=True)
        sweep.solve(start)
        sweep.solve(start + 1)
        # Under-report a slope so the shifted candidate *over*-estimates
        # one entry: single-edge/relaxation checks cannot catch an
        # overestimate on a diagonal-adjacent entry in general, but the
        # cross-check must.  If verification rejects it first we get the
        # (correct) fallback instead — either way, never a wrong matrix.
        sweep._slope = sweep._slope - 1
        try:
            solved = sweep.solve(start + 2)
        except SweepCrossCheckError:
            return
        assert solved is not None
        assert np.array_equal(solved[0], fresh_solve(graph, start + 2)[0])


class TestSweepMemoAndMutation:
    def test_memo_absorbs_repeat_queries(self):
        graph = recurrence_graph()
        sweep = MinDistSweep(graph)
        first = sweep.solve(5)
        again = sweep.solve(5)
        assert first[0] is again[0]
        assert sweep.stats()["memo_hits"] == 1

    def test_graph_mutation_resets_the_sweep(self):
        from repro.graph.edges import Edge

        graph = recurrence_graph()
        sweep = MinDistSweep(graph)
        sweep.solve(5)
        sweep.solve(6)
        graph.add_edge(Edge("x", "y", distance=2))
        solved = sweep.solve(6)
        assert np.array_equal(solved[0], fresh_solve(graph, 6)[0])


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
        mrt.place(graph.operation(session.names[0]), 0)
        again = session.mrt(ii)
        assert again is mrt  # reset in place, not reallocated
        assert not again.is_placed(graph.operation(session.names[0]))
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


class TestSweepTracing:
    def test_fresh_solves_emit_mindist_spans_under_search(self):
        """Every fresh O(n³) solve of the sweep — plain and
        slope-augmented — is one ``mindist.solve`` span under
        ``scheduler.search``; incremental advances and memo hits are
        not."""
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
        assert session.sweep_stats()["incremental_steps"] > 0
        assert all(s["parent_id"] == search["span_id"] for s in solves)
        assert {s["attrs"]["slopes"] for s in solves} == {False, True}
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
