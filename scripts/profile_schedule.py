#!/usr/bin/env python
"""cProfile harness for one scheduling cell.

Profiles ``scheduler.schedule(graph, machine)`` for a chosen kernel (or
a seeded synthetic loop), scheduler, and machine, and prints the top
functions by cumulative time — the quickest way to see where a search
actually spends its cycles (Floyd–Warshall solves vs placement vs
ordering) before and after an engine change.

Usage::

    PYTHONPATH=src python scripts/profile_schedule.py                  # defaults
    PYTHONPATH=src python scripts/profile_schedule.py --size 160 --scheduler frlc
    PYTHONPATH=src python scripts/profile_schedule.py --kernel daxpy --scheduler sms
    PYTHONPATH=src python scripts/profile_schedule.py --sort tottime --top 30
    PYTHONPATH=src python scripts/profile_schedule.py --out profile.pstats

``--out`` saves the raw stats for ``snakeviz``/``pstats`` digging; the
printed report is always emitted.  Under it, one line gives the
placement ladder's work per run of the cell (attempts, row groups the
ladder walked, ``scan_place`` calls) and two lines give the garbage
collector's pause time and collections per generation (from
``gc.callbacks``) during the MII analysis and during the profiled cell,
so allocation-heavy layers show up as GC cost, not only as their own.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.session import SchedulingSession  # noqa: E402
from repro.machine.configs import machine_from_config  # noqa: E402
from repro.mii.analysis import compute_mii  # noqa: E402
from repro.schedulers.registry import (  # noqa: E402
    available_schedulers,
    make_scheduler,
)
from repro.workloads.synthetic import random_ddg  # noqa: E402

#: Default synthetic cell: the same seeded 160-op loop the perf tiers
#: use (seed offset 1 — a deep, ~45-attempt II search).
DEFAULT_SIZE = 160
DEFAULT_SEED_OFFSET = 1


class GcPauses:
    """Garbage-collector pause seconds and collections per generation,
    recorded from ``gc.callbacks`` while the ``with`` block runs."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._began: float | None = None

    def _observe(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        elif self._began is not None:
            self.seconds += time.perf_counter() - self._began
            self.collections[info["generation"]] += 1
            self._began = None

    def __enter__(self) -> GcPauses:
        gc.callbacks.append(self._observe)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._observe)

    def summary(self) -> str:
        per_generation = "/".join(map(str, self.collections))
        return (
            f"{self.seconds:.4f} s in {sum(self.collections)} collections "
            f"(generation 0/1/2: {per_generation})"
        )


def ladder_work(stats: pstats.Stats, runs: int) -> dict[str, int]:
    """The placement ladder's work per run, read off the profile.

    ``walks`` counts :func:`~repro.schedulers.base.bidirectional_ladder`
    calls (one per HRMS/SMS attempt), ``resumes`` the reservation-table
    restores (one per row group resumed after a group failed); a walk
    starts with one group, so ``groups = walks + resumes``.
    """
    wanted = {
        ("base.py", "bidirectional_ladder"): "walks",
        ("mrt.py", "restore"): "resumes",
        ("mrt.py", "scan_place"): "scan_place",
    }
    counts = dict.fromkeys(wanted.values(), 0)
    for (filename, _, function), row in stats.stats.items():
        name = wanted.get((os.path.basename(filename), function))
        if name is not None:
            counts[name] += row[1] // runs
    counts["groups"] = counts["walks"] + counts["resumes"]
    return counts


def resolve_graph(args: argparse.Namespace):
    if args.kernel is not None:
        from repro.frontend.kernels import kernel_names, kernel_source
        from repro.frontend.pipeline import compile_source, profile_by_name

        if args.kernel not in kernel_names():
            raise SystemExit(
                f"profile_schedule: unknown kernel {args.kernel!r}; "
                f"available: {', '.join(kernel_names())}"
            )
        loop = compile_source(
            kernel_source(args.kernel),
            name=args.kernel,
            profile=profile_by_name(args.profile),
        )
        return loop.graph
    return random_ddg(
        random.Random(args.size + args.seed_offset),
        args.size,
        name=f"profile{args.size}",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="profile_schedule",
        description=__doc__.splitlines()[1],
    )
    parser.add_argument(
        "--kernel", default=None,
        help="profile a bundled front-end kernel instead of a "
             "synthetic loop (e.g. daxpy)",
    )
    parser.add_argument(
        "--profile", default=None,
        help="lowering profile for --kernel (perfect_club | "
             "govindarajan)",
    )
    parser.add_argument(
        "--size", type=int, default=DEFAULT_SIZE,
        help="synthetic loop size in operations (default: %(default)s)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=DEFAULT_SEED_OFFSET,
        help="seed offset of the synthetic loop (default: %(default)s, "
             "a deep multi-attempt II search at 160 ops)",
    )
    parser.add_argument(
        "--scheduler", default="hrms", choices=available_schedulers(),
        help="scheduler to profile (default: %(default)s)",
    )
    parser.add_argument(
        "--machine", default="perfect-club",
        help="machine config name (default: %(default)s)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="schedule the cell N times inside the profile "
             "(default: %(default)s; raise it to drown out one-time "
             "costs)",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: %(default)s)",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="rows to print (default: %(default)s)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also dump raw stats to this file (snakeviz/pstats input)",
    )
    args = parser.parse_args(argv)

    graph = resolve_graph(args)
    machine = machine_from_config(args.machine)
    # The MII analysis is deliberately *outside* the profiled region:
    # it is II-independent setup work shared by every mode, and the
    # interesting deltas live in the per-II search.
    with GcPauses() as analysis_gc:
        analysis = compute_mii(graph, machine)
    scheduler = make_scheduler(args.scheduler)

    def cell() -> None:
        for _ in range(args.repeat):
            session = SchedulingSession(graph, machine, analysis)
            scheduler.schedule(graph, machine, analysis, session=session)

    profiler = cProfile.Profile()
    with GcPauses() as cell_gc:
        profiler.enable()
        cell()
        profiler.disable()

    # One un-profiled run to report the search shape alongside the
    # numbers (cProfile inflates wall time; the shape does not change).
    session = SchedulingSession(graph, machine, analysis)
    schedule = scheduler.schedule(graph, machine, analysis, session=session)
    print(
        f"profile_schedule: {graph.name} ({len(graph)} ops) x "
        f"{args.scheduler} on {args.machine}: II {schedule.ii} "
        f"(MII {analysis.mii}), {schedule.stats.attempts} attempts, "
        f"MinDist {session.sweep_stats()}"
    )
    stats = pstats.Stats(profiler)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"profile_schedule: raw stats -> {args.out}")
    work = ladder_work(stats, args.repeat)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(
        f"profile_schedule: ladder work per run: "
        f"{schedule.stats.attempts} attempts, {work['groups']} row groups "
        f"({work['walks']} walks + {work['resumes']} resumed), "
        f"{work['scan_place']} scan_place calls"
    )
    print(f"profile_schedule: gc during compute_mii: {analysis_gc.summary()}")
    print(f"profile_schedule: gc during the profiled cell: {cell_gc.summary()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
