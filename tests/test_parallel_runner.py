"""Tests for the study runner's worker pool, deduplication and cache."""

import pytest

from repro.experiments import stats
from repro.experiments.cli import build_parser
from repro.experiments.stats import aggregate, run_study
from repro.workloads.perfectclub import perfect_club_suite


@pytest.fixture(scope="module")
def loops():
    return perfect_club_suite(n_loops=30, seed=11)


@pytest.fixture(scope="module")
def serial_study(loops):
    return run_study(loops=loops)


class _CountingCache(dict):
    """A plain dict that counts the runner's reads and writes."""

    def __init__(self):
        super().__init__()
        self.reads = self.writes = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was spawned")


def _squared(x):
    return x * x


class TestMap:
    """The order-preserving map behind ``run_study``'s fan-out."""

    @pytest.mark.parametrize("jobs", [1, 2, 0])
    def test_order_preserved(self, jobs):
        items = list(range(23))
        assert stats._map(_squared, items, jobs) == [x * x for x in items]

    def test_single_item_short_circuits_without_pool(self):
        # A lambda is unpicklable: only a pool-free path can map it.
        assert stats._map(lambda x: x + 1, [41], jobs=8) == [42]


class TestCli:
    def test_backend_option_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--backend", "process"])
        assert "--backend" in capsys.readouterr().err

    def test_jobs_defaults_to_in_process(self):
        assert build_parser().parse_args(["stats"]).jobs == 1


class TestRunStudy:
    def test_process_pool_matches_in_process(self, loops, serial_study):
        study = run_study(loops=loops, jobs=2)
        assert study.schedulers == serial_study.schedulers
        assert len(study.records) == len(serial_study.records)
        for ours, ref in zip(study.records, serial_study.records):
            assert ours.loop.name == ref.loop.name
            assert ours.mii == ref.mii
            for name in ref.rows:
                assert ours.rows[name].ii == ref.rows[name].ii
                assert ours.rows[name].maxlive == ref.rows[name].maxlive
        # The aggregate claims derived from the study agree too (timing
        # shares differ; the structural numbers must not).
        a, b = aggregate(study), aggregate(serial_study)
        assert a.optimal_fraction == b.optimal_fraction
        assert a.mean_ii_over_mii == b.mean_ii_over_mii
        assert a.dynamic_performance == b.dynamic_performance
        assert a.register_ratio_vs == b.register_ratio_vs

    def test_per_loop_cache_reused(self, loops):
        cache = _CountingCache()
        run_study(loops=loops, cache=cache)
        entries = len(cache)
        assert 0 < entries <= len(loops)
        assert cache.writes == entries  # one write per distinct loop
        study = run_study(loops=loops, cache=cache)
        assert cache.writes == entries  # nothing recomputed
        assert len(study.records) == len(loops)

    def test_duplicate_loops_scheduled_once(self, loops, monkeypatch):
        scheduled = []
        schedule_loop = stats._schedule_loop

        def counting(task):
            scheduled.append(task[0].name)
            return schedule_loop(task)

        monkeypatch.setattr(stats, "_schedule_loop", counting)
        cache = _CountingCache()
        study = run_study(loops=loops[:3] * 2, cache=cache)
        assert scheduled == [loop.name for loop in loops[:3]]
        assert cache.writes == 3
        assert cache.reads == 3  # one lookup per distinct loop
        assert [r.mii for r in study.records[:3]] == [
            r.mii for r in study.records[3:]
        ]

    def test_records_keep_their_own_loops(self, loops):
        study = run_study(loops=loops)
        assert [r.loop.name for r in study.records] == [
            loop.name for loop in loops
        ]

    def test_single_loop_spawns_no_pool(self, loops, monkeypatch):
        monkeypatch.setattr(stats, "ProcessPoolExecutor", _no_pool)
        study = run_study(loops=loops[:1], jobs=8)
        assert len(study.records) == 1
        # Duplicates of one loop leave one to schedule: still no pool.
        study = run_study(loops=loops[:1] * 3, jobs=8)
        assert len(study.records) == 3

    def test_single_worker_spawns_no_pool(self, loops, monkeypatch):
        monkeypatch.setattr(stats, "ProcessPoolExecutor", _no_pool)
        assert len(run_study(loops=loops[:4], jobs=1).records) == 4
