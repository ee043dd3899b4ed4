"""Section 4.2 — the Perfect-Club study shared by Figures 11–14.

Schedules the whole loop population with HRMS and the Top-Down comparator
and gathers everything the figures need: per-loop II, MII, MaxLive of the
variants, invariant counts, iteration counts, and per-phase timing.  The
aggregate statistics the paper quotes are reproduced by
:func:`aggregate`:

* fraction of loops scheduled at II = MII (paper: 97.5 %);
* average II / MII (paper: 1.01);
* dynamic performance — iteration-weighted MII/II (paper: 98.4 %);
* pre-ordering's share of scheduling time (paper: 9 % ordering vs
  87.8 % placement);
* the mean HRMS/Top-Down variant-register ratio (paper: 87 %).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.mindist import graph_fingerprint, warm_start
from repro.machine.configs import perfect_club_machine
from repro.machine.machine import MachineModel
from repro.mii.analysis import compute_mii
from repro.schedule.maxlive import max_live
from repro.schedule.schedule import Schedule
from repro.schedulers import registry
from repro.schedulers.registry import make_scheduler
from repro.workloads.loops import Loop
from repro.workloads.perfectclub import perfect_club_suite


@dataclass
class StudyRow:
    """Per-loop outcome for one scheduler."""

    ii: int
    maxlive: int
    seconds: float
    ordering_seconds: float
    scheduling_seconds: float


@dataclass
class StudyRecord:
    """One loop's results across schedulers."""

    loop: Loop
    mii: int
    rows: dict[str, StudyRow] = field(default_factory=dict)


@dataclass
class PerfectStudy:
    """The full study: per-loop records plus run parameters."""

    records: list[StudyRecord]
    schedulers: tuple[str, ...]

    def loops(self) -> list[Loop]:
        return [record.loop for record in self.records]


def run_study(
    loops: list[Loop] | None = None,
    schedulers: tuple[str, ...] | None = None,
    machine: MachineModel | None = None,
    n_loops: int | None = None,
    *,
    jobs: int = 1,
    cache: Any = None,
) -> PerfectStudy:
    """Schedule the population with every scheduler.

    ``schedulers=None`` means the registry-derived
    :data:`repro.schedulers.registry.DEFAULT_BATCH_SCHEDULERS`.
    Structurally identical loops (same graph fingerprint) are scheduled
    once.  ``jobs=1`` runs in this process; ``jobs > 1`` fans the
    distinct loops out over that many worker processes, each warmed by
    :func:`repro.engine.warm_start`; ``jobs=0`` uses every core.

    *cache* is any mapping, read with ``cache.get(key)`` (``None`` is a
    miss) and written with ``cache[key] = value``.  Pass the same dict
    to successive calls to reuse rows across studies, or
    :func:`repro.service.store.persistent_study_cache` to persist them
    in the artifact store (``hrms-experiments --store DIR``).
    """
    if schedulers is None:
        schedulers = registry.DEFAULT_BATCH_SCHEDULERS
    schedulers = tuple(schedulers)
    if loops is None:
        loops = perfect_club_suite(
            n_loops=n_loops if n_loops is not None else 1258
        )
    machine = machine or perfect_club_machine()
    cache = cache if cache is not None else {}

    machine_key = _machine_fingerprint(machine)
    keys = [
        (graph_fingerprint(loop.graph), schedulers, machine_key)
        for loop in loops
    ]
    outcomes: dict[tuple, tuple[int, dict[str, StudyRow]]] = {}
    pending: dict[tuple, Loop] = {}
    for key, loop in zip(keys, loops):
        if key in outcomes or key in pending:
            continue
        hit = cache.get(key)
        if hit is None:
            pending[key] = loop
        else:
            outcomes[key] = hit

    tasks = [(loop, schedulers, machine) for loop in pending.values()]
    for key, outcome in zip(pending, _map(_schedule_loop, tasks, jobs)):
        cache[key] = outcome
        outcomes[key] = outcome

    records = []
    for key, loop in zip(keys, loops):
        mii, rows = outcomes[key]
        records.append(StudyRecord(loop=loop, mii=mii, rows=dict(rows)))
    return PerfectStudy(records=records, schedulers=schedulers)


def _machine_fingerprint(machine: MachineModel) -> tuple:
    """Structural identity of a machine (names alone can collide)."""
    return (
        machine.name,
        tuple(
            (unit.name, unit.count, unit.pipelined)
            for unit in machine.unit_classes()
        ),
    )


def _map(fn: Callable[[Any], Any], items: list, jobs: int) -> list:
    """Order-preserving map, over a warm process pool when ``jobs``
    allows more than one worker and there is more than one item."""
    workers = jobs if jobs > 0 else os.cpu_count() or 1
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Large enough to amortise pickling, small enough to keep the
    # workers balanced.
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)), initializer=warm_start
    ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _schedule_loop(
    task: tuple[Loop, tuple[str, ...], MachineModel],
) -> tuple[int, dict[str, StudyRow]]:
    """Schedule one loop with every scheduler (runs in a worker)."""
    loop, schedulers, machine = task
    analysis = compute_mii(loop.graph, machine)
    rows = {
        name: _row_of(
            make_scheduler(name).schedule(loop.graph, machine, analysis)
        )
        for name in schedulers
    }
    return analysis.mii, rows


def _row_of(schedule: Schedule) -> StudyRow:
    return StudyRow(
        ii=schedule.ii,
        maxlive=max_live(schedule),
        seconds=schedule.stats.total_seconds,
        ordering_seconds=schedule.stats.ordering_seconds,
        scheduling_seconds=schedule.stats.scheduling_seconds,
    )


@dataclass
class AggregateStats:
    """The Section 4.2 headline numbers."""

    loops: int
    optimal_fraction: float
    mean_ii_over_mii: float
    dynamic_performance: float
    ordering_time_share: float
    scheduling_time_share: float
    register_ratio_vs: dict[str, float]


def aggregate(
    study: PerfectStudy, baseline: str = "hrms"
) -> AggregateStats:
    """Compute the paper's aggregate claims from a study."""
    records = study.records
    n = len(records)
    optimal = sum(1 for r in records if r.rows[baseline].ii == r.mii)
    mean_ratio = (
        sum(r.rows[baseline].ii / r.mii for r in records) / n if n else 0.0
    )
    ideal_cycles = sum(r.mii * r.loop.iterations for r in records)
    real_cycles = sum(
        r.rows[baseline].ii * r.loop.iterations for r in records
    )
    dynamic = ideal_cycles / real_cycles if real_cycles else 0.0

    total = sum(r.rows[baseline].seconds for r in records)
    ordering = sum(r.rows[baseline].ordering_seconds for r in records)
    placing = sum(r.rows[baseline].scheduling_seconds for r in records)

    ratios: dict[str, float] = {}
    for other in study.schedulers:
        if other == baseline:
            continue
        ours = sum(r.rows[baseline].maxlive for r in records)
        theirs = sum(r.rows[other].maxlive for r in records)
        ratios[other] = ours / theirs if theirs else 0.0

    return AggregateStats(
        loops=n,
        optimal_fraction=optimal / n if n else 0.0,
        mean_ii_over_mii=mean_ratio,
        dynamic_performance=dynamic,
        ordering_time_share=ordering / total if total else 0.0,
        scheduling_time_share=placing / total if total else 0.0,
        register_ratio_vs=ratios,
    )


def render_stats(stats: AggregateStats) -> str:
    """One-line-per-claim text rendering."""
    lines = [
        f"loops scheduled:            {stats.loops}",
        f"II == MII:                  {stats.optimal_fraction:.1%}"
        "   (paper: 97.5%)",
        f"mean II / MII:              {stats.mean_ii_over_mii:.3f}"
        "  (paper: 1.01)",
        f"dynamic performance:        {stats.dynamic_performance:.1%}"
        "  (paper: 98.4%)",
        f"pre-ordering time share:    {stats.ordering_time_share:.1%}"
        "   (paper: ~9%)",
        f"placement time share:       {stats.scheduling_time_share:.1%}"
        "  (paper: ~87.8%)",
    ]
    for other, ratio in stats.register_ratio_vs.items():
        lines.append(
            f"register ratio vs {other}: {ratio:.1%}  (paper: ~87%)"
        )
    return "\n".join(lines)
