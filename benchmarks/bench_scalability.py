"""Scalability microbenchmarks (not a paper artefact).

How the pipeline's phases scale with loop-body size: MII analysis
(circuit enumeration), the HRMS pre-ordering, MinDist (the pure cold
factorise-and-solve vs. a warm session memo hit), and the full schedule.  Useful
for spotting complexity regressions in the graph algorithms.

The 512-op tier exists to exercise the engine layer at sizes the seed
implementation could not reach interactively; its full-schedule case
performs a long II search (~tens of attempts) and is deliberately run
for a single round.  ``scripts/perf_check.py`` runs the same
measurements standalone and gates on the committed baseline.
"""

import random

import pytest

from repro.core.ordering import hrms_order
from repro.core.scheduler import HRMSScheduler
from repro.engine import SchedulingSession
from repro.engine.mindist import factorise, solve
from repro.mii.analysis import compute_mii
from repro.workloads.synthetic import random_ddg

SIZES = [16, 64, 160]
#: The engine-layer tier; the seed topped out at 160.
LARGE_SIZES = SIZES + [512]


def graph_of(size: int):
    return random_ddg(random.Random(size), size, name=f"scale{size}")


@pytest.mark.parametrize("size", LARGE_SIZES)
def test_mii_analysis(benchmark, size, pc_machine):
    graph = graph_of(size)
    result = benchmark(compute_mii, graph, pc_machine)
    assert result.mii >= 1


@pytest.mark.parametrize("size", LARGE_SIZES)
def test_preordering(benchmark, size, pc_machine):
    graph = graph_of(size)
    analysis = compute_mii(graph, pc_machine)
    result = benchmark(hrms_order, graph, analysis)
    assert len(result.order) == size


@pytest.mark.parametrize("size", LARGE_SIZES)
def test_mindist_cold(benchmark, size, pc_machine):
    """Factorise the graph and solve one II with no memo at all."""
    graph = graph_of(size)
    ii = compute_mii(graph, pc_machine).mii

    def cold_solve():
        return solve(factorise(graph), ii)

    result = benchmark(cold_solve)
    assert result is not None


@pytest.mark.parametrize("size", LARGE_SIZES)
def test_mindist_warm(benchmark, size, pc_machine):
    """Memo-hit path: the II search's repeat queries cost this much."""
    graph = graph_of(size)
    analysis = compute_mii(graph, pc_machine)
    session = SchedulingSession(graph, pc_machine, analysis)
    assert session.mindist(analysis.mii) is not None  # prime

    result = benchmark(session.mindist, analysis.mii)
    assert result is not None
    assert session.sweep_stats()["memo_hits"] >= 1


@pytest.mark.parametrize("size", SIZES)
def test_full_schedule(benchmark, size, pc_machine):
    graph = graph_of(size)
    analysis = compute_mii(graph, pc_machine)
    scheduler = HRMSScheduler()
    schedule = benchmark(scheduler.schedule, graph, pc_machine, analysis)
    assert schedule.ii >= analysis.mii


def test_full_schedule_512(benchmark, pc_machine):
    """One round only: the 512-op II search runs ~55 attempts cold."""
    graph = graph_of(512)
    analysis = compute_mii(graph, pc_machine)
    scheduler = HRMSScheduler()
    schedule = benchmark.pedantic(
        scheduler.schedule,
        args=(graph, pc_machine, analysis),
        rounds=1,
        iterations=1,
    )
    assert schedule.ii >= analysis.mii
