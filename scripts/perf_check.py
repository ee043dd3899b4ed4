#!/usr/bin/env python
"""Performance regression gate for the scheduling engine.

Runs every tier in :data:`TIERS` — the scalability hot paths on the
seeded synthetic loops ``benchmarks/bench_scalability.py`` uses, the
per-II MinDist solve and batch fast path, the live service, the portfolio
race, the thread/process backends, the mini fuzzing, chaos and
conformance campaigns, tracing overhead, and the documentation gate —
writes the numbers to ``BENCH_scalability.json`` and **fails loudly**
when any gated key breaks its rule against the committed baseline.
Each gated key carries one rule kind (:data:`RULE_KINDS`): exact
identity with the baseline (an II change means the schedules changed),
an absolute predicate or bound, or a ratio within ``--threshold``
(default 2x) of the baseline.

Usage::

    PYTHONPATH=src python scripts/perf_check.py                  # gate
    PYTHONPATH=src python scripts/perf_check.py --update         # new baseline
    PYTHONPATH=src python scripts/perf_check.py --sizes 16,64,160,512
    PYTHONPATH=src python scripts/perf_check.py --tier conformance
    PYTHONPATH=src python scripts/perf_check.py --list-tiers     # the rules

Timing keys are gated with min-of-N timings to damp machine noise; the
2x threshold leaves further headroom for slow CI boxes.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.scheduler import HRMSScheduler  # noqa: E402
from repro.engine import SchedulingSession  # noqa: E402
from repro.engine.mindist import closure, factorise, solve  # noqa: E402
from repro.machine.configs import perfect_club_machine  # noqa: E402
from repro.mii.analysis import compute_mii  # noqa: E402
from repro.service.faults import POINTS  # noqa: E402
from repro.workloads.synthetic import random_ddg  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_scalability.json"
DEFAULT_SIZES = (16, 64, 160)


def _best_of(repeats: int, fn, setup=None) -> float:
    """Best wall time of *repeats* calls of ``fn()``, or of
    ``fn(setup())`` with each ``setup()`` run outside the timed region."""
    best = float("inf")
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        began = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - began)
    return best


def measure_size(size: int, machine, repeats: int = 3) -> dict:
    graph = random_ddg(random.Random(size), size, name=f"scale{size}")
    analysis = compute_mii(graph, machine)
    # The whole MII analysis from scratch: circuits, ResMII, RecMII and
    # the recurrence subgraphs.  Each cold repetition runs on a fresh
    # copy, so it also pays for the graph's indexed view (cached on the
    # graph object once built).
    mii = _best_of(
        repeats, lambda clone: compute_mii(clone, machine), setup=graph.copy
    )

    # Cold: the pure factorise + whole-graph Floyd–Warshall reference.
    # Fresh: the production cold solve (factorise with its condensation,
    # then one condensation solve).  Warm: a memo hit of the session's
    # MinDist, the path every scheduler queries.
    cold = _best_of(
        repeats,
        lambda clone: solve(factorise(clone), analysis.mii),
        setup=graph.copy,
    )
    fresh = _best_of(
        repeats,
        lambda clone: closure(factorise(clone), analysis.mii),
        setup=graph.copy,
    )

    session = SchedulingSession(graph, machine, analysis)
    session.mindist(analysis.mii)
    loops = 50

    def warm_batch():
        for _ in range(loops):
            session.mindist(analysis.mii)

    warm = _best_of(repeats, warm_batch) / loops

    scheduler = HRMSScheduler()
    schedules = []

    def cold_schedule():
        schedules.append(scheduler.schedule(graph, machine, analysis))

    full_cold = _best_of(repeats, cold_schedule)
    schedule = schedules[-1]
    full_warm = _best_of(
        repeats, lambda: scheduler.schedule(graph, machine, analysis)
    )

    # Deep: the seed-offset-1 loop of the same size (the engine_sweep
    # tier's loop), whose HRMS search at 160 ops runs 38 attempts
    # through the whole placement ladder — the cell placement cost
    # dominates.  Cold like full_schedule_cold_s: a fresh session per
    # call, the MII analysis precomputed.
    deep = random_ddg(random.Random(size + 1), size, name=f"sweep{size}")
    deep_analysis = compute_mii(deep, machine)
    deep_hrms = _best_of(
        repeats, lambda: scheduler.schedule(deep, machine, deep_analysis)
    )

    return {
        "mii_s": mii,
        "circuits": len(analysis.circuits),
        "mindist_cold_s": cold,
        "mindist_fresh_s": fresh,
        "mindist_warm_s": warm,
        "full_schedule_cold_s": full_cold,
        "full_schedule_warm_s": full_warm,
        "ii": schedule.ii,
        "mii": analysis.mii,
        "attempts": schedule.stats.attempts,
        "deep_hrms_s": deep_hrms,
    }


def measure_sizes(sizes) -> dict:
    machine = perfect_club_machine()
    return {str(size): measure_size(size, machine) for size in sizes}


def _serve(
    what: str, requests: list[dict], workers: int, batched: bool = True
) -> tuple[float, list[dict]]:
    """Run *requests* through a live localhost server over a cold
    temporary store — one ``POST /v1/batch``, or one submit-and-wait
    round trip each — and return the wall time and the settled job
    records.  Raises when any job did not finish."""
    import tempfile

    from repro.service import ServiceClient, ServiceServer

    with tempfile.TemporaryDirectory(prefix="hrms-perf-") as tmp:
        with ServiceServer(tmp, workers=workers) as server:
            client = ServiceClient(server.url)
            began = time.perf_counter()
            if batched:
                ids = client.submit_batch(requests)
                records = [client.wait(i, timeout=300) for i in ids]
            else:
                records = [
                    client.wait(client.submit(req), timeout=300)
                    for req in requests
                ]
            wall = time.perf_counter() - began
    failed = [r for r in records if r["status"] != "done"]
    if failed:
        raise RuntimeError(f"{what}: {len(failed)} jobs failed")
    return wall, records


#: Minimum cold multi-attempt speedup the per-II condensation solve
#: (``closure``) must deliver over per-II whole-graph Floyd–Warshall
#: solves on the 160-op workload.  Each of the ~45 attempts trades an
#: O(n³) solve for an about O(n·|E|) one; 2x leaves noise headroom.
SWEEP_SPEEDUP_TARGET = 2.0
#: Minimum throughput ratio of one ``POST /v1/batch`` of 64 requests
#: over 64 sequential individual submissions (same store temperature,
#: same workers).  The batch path pipelines the queue and shares
#: scheduling sessions across same-loop requests.
BATCH_SPEEDUP_TARGET = 1.5


def measure_engine_sweep(
    size: int = 160,
    seed_offset: int = 1,
    repeats: int = 3,
    batch_graphs: int = 16,
    workers: int = 4,
) -> dict:
    """Engine-sweep tier: the per-II MinDist solve and the batch fast path.

    Two gated halves:

    * **sweep** — schedule the seeded *size*-op loop (a deep II search:
      ~45 attempts with FRLC) cold, once with per-II ``closure`` (the
      production path) and once with the session's ``closure`` swapped
      for the whole-graph Floyd–Warshall ``solve``.  ``closure`` must be
      :data:`SWEEP_SPEEDUP_TARGET` times faster and the schedules
      bit-identical — the condensation solve is an optimisation, never
      a semantic change.  The MII analysis is precomputed outside both
      timed regions (identical in both modes).
    * **batch** — 64 schedule requests (*batch_graphs* loops × 4
      heuristics, one machine) through a live HTTP server twice: one
      ``POST /v1/batch`` waited on together, then 64 sequential
      submit-and-wait round trips, each over its own cold store.  The
      batch path must clear :data:`BATCH_SPEEDUP_TARGET` times the
      individual throughput, and the per-request IIs must agree.
    """
    from repro.graph.serialization import graph_to_dict
    from repro.schedulers.registry import make_scheduler

    machine = perfect_club_machine()
    graph = random_ddg(
        random.Random(size + seed_offset), size, name=f"sweep{size}"
    )
    analysis = compute_mii(graph, machine)
    scheduler = make_scheduler("frlc")

    def run_mode():
        best = float("inf")
        schedule = session = None
        for _ in range(repeats):
            session = SchedulingSession(graph, machine, analysis)
            began = time.perf_counter()
            schedule = scheduler.schedule(
                graph, machine, analysis, session=session
            )
            best = min(best, time.perf_counter() - began)
        return best, schedule, session.sweep_stats()

    sweep_s, sweep_schedule, sweep_stats = run_mode()
    with mock.patch("repro.engine.session.closure", solve):
        fresh_s, fresh_schedule, _ = run_mode()
    identical = (
        sweep_schedule.ii == fresh_schedule.ii
        and dict(sweep_schedule.start) == dict(fresh_schedule.start)
    )

    scheds = ("hrms", "sms", "topdown", "frlc")
    batch_loops = [
        random_ddg(random.Random(400 + offset), 40, name=f"batch{offset}")
        for offset in range(batch_graphs)
    ]
    requests = [
        {
            "kind": "schedule",
            "graph": graph_to_dict(loop),
            "machine": "perfect-club",
            "scheduler": sched,
        }
        for loop in batch_loops
        for sched in scheds
    ]

    batch_wall, batched = _serve("engine_sweep batch", requests, workers)
    individual_wall, individual = _serve(
        "engine_sweep batch", requests, workers, batched=False
    )
    batch_iis = [r["result"]["ii"] for r in batched]
    return {
        "size": size,
        "attempts": sweep_schedule.stats.attempts,
        "ii": sweep_schedule.ii,
        "sweep_s": sweep_s,
        "fresh_s": fresh_s,
        "sweep_speedup": fresh_s / sweep_s,
        "sweep_stats": sweep_stats,
        "identical_schedules": identical,
        "batch_jobs": len(requests),
        "batch_wall_s": batch_wall,
        "individual_wall_s": individual_wall,
        "batch_jobs_per_s": len(requests) / batch_wall,
        "individual_jobs_per_s": len(requests) / individual_wall,
        "batch_speedup": individual_wall / batch_wall,
        "batch_iis": batch_iis,
        "identical_batch_iis": batch_iis
        == [r["result"]["ii"] for r in individual],
    }


def measure_service(jobs: int = 48, workers: int = 4) -> dict:
    """Service smoke tier: live localhost server, one batch, wall time.

    Submits *jobs* schedule requests (the Govindarajan kernels, cycled)
    over HTTP against a cold temporary store and reports end-to-end
    throughput plus the p95 submit-to-finish latency.  Small numbers by
    design — this guards the service plumbing (HTTP, queue, workers,
    store) rather than the schedulers, which the size tiers cover.
    """
    from repro.graph.serialization import graph_to_dict
    from repro.service.metrics import percentile
    from repro.workloads.govindarajan import govindarajan_suite

    graphs = [loop.graph for loop in govindarajan_suite()]
    requests = [
        {
            "kind": "schedule",
            "graph": graph_to_dict(graph),
            "machine": "govindarajan",
        }
        for graph in (graphs * ((jobs // len(graphs)) + 1))[:jobs]
    ]
    wall, records = _serve("service smoke", requests, workers)
    latencies = [r["finished_at"] - r["submitted_at"] for r in records]
    return {
        "jobs": jobs,
        "wall_s": wall,
        "throughput_jobs_per_s": jobs / wall,
        "p95_latency_s": percentile(latencies, 0.95),
    }


#: Process-over-thread throughput the procpool tier demands when the
#: box actually has at least as many cores as workers.  Near-linear
#: scaling on 4 workers would be ~4x; 2.5x leaves headroom for IPC and
#: store traffic.
PROCPOOL_SCALING_TARGET = 2.5


def measure_procpool(jobs: int = 8, workers: int = 4, size: int = 160) -> dict:
    """Procpool tier: thread vs process backend on the 160-op workload.

    Submits *jobs* distinct 160-op schedule requests to an in-process
    :class:`SchedulingService` over a cold temporary store, once per
    backend, and reports jobs/s for each plus the process/thread
    speedup.  The artifacts of both runs are compared bit-for-bit
    (wall-clock ``seconds`` excepted), so the tier is simultaneously
    the scaling gate and a backend-parity gate.

    The speedup is only meaningful when the machine has at least
    *workers* cores — pure-Python scheduling cannot scale past the
    core count — so ``cpus`` is recorded and the gate adapts (the two
    ``speedup`` rules of the procpool tier in :data:`TIERS`).
    """
    import os
    import tempfile

    from repro.graph.serialization import graph_to_dict
    from repro.service import ExecutorConfig, SchedulingService

    # Seed offsets whose 160-op graphs are schedulable: offset 2 draws a
    # pathological graph (> 50k elementary circuits in RecMII), so the
    # workload skips it — the tier measures backends, not RecMII limits.
    offsets = [i for i in range(jobs + jobs // 2 + 2) if i != 2][:jobs]
    graphs = [
        random_ddg(random.Random(size + i), size, name=f"scale{size}_{i}")
        for i in offsets
    ]
    requests = [
        {
            "kind": "schedule",
            "graph": graph_to_dict(graph),
            "machine": "perfect-club",
        }
        for graph in graphs
    ]

    def run_backend(backend: str) -> tuple[float, list[int], list[dict]]:
        with tempfile.TemporaryDirectory(prefix="hrms-procpool-") as tmp:
            service = SchedulingService(
                tmp, config=ExecutorConfig(backend=backend, workers=workers)
            ).start()
            try:
                began = time.perf_counter()
                submitted = [service.submit(request) for request in requests]
                while any(
                    job.status not in ("done", "failed") for job in submitted
                ):
                    if time.perf_counter() - began > 600:
                        raise RuntimeError(f"procpool {backend}: timed out")
                    time.sleep(0.005)
                wall = time.perf_counter() - began
            finally:
                service.stop()
            failed = [job for job in submitted if job.status != "done"]
            if failed:
                raise RuntimeError(
                    f"procpool {backend}: {len(failed)} jobs failed: "
                    f"{failed[0].error}"
                )
            iis = [job.result["ii"] for job in submitted]
            envelopes = [
                service.store.get(job.result["artifact"])
                for job in submitted
            ]
        return wall, iis, envelopes

    def normalized(envelope: dict) -> dict:
        payload = dict(envelope["payload"])
        payload.pop("seconds", None)
        scrubbed = {**envelope, "payload": payload}
        # The integrity digest covers the envelope *including* the
        # wall-clock field scrubbed above, so it too must go.
        scrubbed.pop("integrity", None)
        return scrubbed

    thread_wall, thread_iis, thread_envelopes = run_backend("thread")
    process_wall, process_iis, process_envelopes = run_backend("process")
    identical = all(
        normalized(a) == normalized(b)
        for a, b in zip(thread_envelopes, process_envelopes)
    )
    return {
        "jobs": jobs,
        "workers": workers,
        "size": size,
        "cpus": os.cpu_count() or 1,
        "iis": thread_iis,
        "thread_wall_s": thread_wall,
        "process_wall_s": process_wall,
        "thread_jobs_per_s": jobs / thread_wall,
        "process_jobs_per_s": jobs / process_wall,
        "speedup": thread_wall / process_wall,
        "identical_artifacts": identical and thread_iis == process_iis,
    }


#: Worst enabled/disabled wall-time ratio the obs tier tolerates for
#: tracing on the 160-op workload.  The design budget from the tracing
#: layer is "one ``if`` when disarmed, <= 2% when armed".
OBS_OVERHEAD_TARGET = 1.02


def measure_obs(size: int = 160, repeats: int = 6) -> dict:
    """Observability tier: tracing overhead, artifact parity, stats.

    Three guarantees in one tier:

    * **overhead** — scheduling the seeded *size*-op graph with tracing
      armed (a live root span attached, so every site records) must
      cost at most :data:`OBS_OVERHEAD_TARGET` times the disarmed run;
      the disarmed run itself is gated against the baseline like the
      timing tiers, which is what "disarmed ~ zero overhead" means in
      practice;
    * **parity** — the artifact written with tracing on is bit-identical
      (key and payload, wall-clock ``seconds`` excepted) to the one
      written with tracing off;
    * **stats** — the ``/v1/stats`` semantic layer over that store
      returns the same rows on every evaluation, and the rows carry
      deterministic scheduler-quality numbers comparable across runs.
    """
    import tempfile

    from repro.graph.serialization import graph_to_dict
    from repro.obs import trace
    from repro.obs.stats import StatsModel
    from repro.service.executor import SchedulingExecutor
    from repro.service.store import ArtifactStore

    graph = random_ddg(random.Random(size), size, name=f"obs{size}")
    machine = perfect_club_machine()
    analysis = compute_mii(graph, machine)
    scheduler = HRMSScheduler()
    batch = 3

    def schedule_once():
        scheduler.schedule(graph, machine, analysis)

    def batch_plain():
        for _ in range(batch):
            schedule_once()

    def batch_traced():
        for _ in range(batch):
            root = trace.begin_root("request", trace.new_trace_id())
            try:
                with trace.attach(root.trace_id, root.span_id):
                    schedule_once()
            finally:
                trace.finish(root)

    def cpu_time(fn):
        # CPU time, not wall clock: the gate resolves a ~2% delta,
        # which preemption noise in shared containers would swamp.
        began = time.process_time()
        fn()
        return time.process_time() - began

    def measure_pair():
        batch_plain()  # warm allocator and caches before timing
        trace.arm()
        try:
            batch_traced()
        finally:
            trace.disarm()
        offs, ons = [], []
        # Interleave the two modes sample by sample so slow drift
        # (thermal, noisy neighbours) hits both sides roughly equally.
        for _ in range(repeats):
            offs.append(cpu_time(batch_plain))
            trace.arm()
            try:
                ons.append(cpu_time(batch_traced))
            finally:
                trace.disarm()
        return min(offs) / batch, min(ons) / batch

    disabled, enabled = measure_pair()
    if enabled / disabled > OBS_OVERHEAD_TARGET:
        # One remeasure before declaring a regression: a single noisy
        # sample must not fail the gate when the true overhead is fine.
        retry_off, retry_on = measure_pair()
        if retry_on / retry_off < enabled / disabled:
            disabled, enabled = retry_off, retry_on

    request = {
        "kind": "schedule",
        "graph": graph_to_dict(graph),
        "machine": "perfect-club",
    }

    def run_executor(root_dir, tracing):
        executor = SchedulingExecutor(ArtifactStore(root_dir))
        if tracing:
            trace.arm()
        try:
            result = executor.execute_request("schedule", dict(request))
        finally:
            if tracing:
                trace.disarm()
        envelope = executor.store.get(result["artifact"])
        payload = dict(envelope["payload"])
        payload.pop("seconds", None)
        return result["artifact"], payload, executor.store

    stats_query = {
        "group_by": ["scheduler", "op_bucket"],
        "measures": ["count", "ii_mii_ratio", "mii_hit_rate",
                     "maxlive_mean"],
    }
    with tempfile.TemporaryDirectory(prefix="hrms-obs-") as tmp:
        tmp = Path(tmp)
        key_off, payload_off, _ = run_executor(tmp / "off", tracing=False)
        key_on, payload_on, store = run_executor(tmp / "on", tracing=True)
        # Two independent models over the same store must agree exactly.
        first = StatsModel(store).query(**stats_query)
        second = StatsModel(store).query(**stats_query)

    return {
        "size": size,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "overhead_ratio": enabled / disabled,
        "identical_artifacts": key_off == key_on
        and payload_off == payload_on,
        "stats_deterministic": first == second,
        "stats_rows": first["rows"],
    }


def measure_qa(seeds: int = 100) -> dict:
    """QA tier: a fixed-seed mini fuzzing campaign, gated on zero
    oracle failures.

    Sweeps *seeds* cases (every diversity profile, every canonical
    machine, every registered heuristic scheduler + the portfolio race)
    through the oracle battery — the ~30-second standing guarantee that
    the differential verification layer stays green.  The exact (MILP)
    schedulers and the backend-parity phase are left to full
    ``hrms-fuzz`` runs; this tier guards determinism and the oracles.
    """
    from repro.qa.campaign import CampaignConfig, run_campaign

    began = time.perf_counter()
    report = run_campaign(
        CampaignConfig(seeds=seeds, include_exact=False, shrink=False)
    )
    return {
        "seeds": seeds,
        "cases": report.cases,
        "schedules": report.schedules,
        "checks": report.checks,
        "skipped": report.skipped,
        "failures": len(report.failures),
        "failure_descriptions": [
            failure.describe() for failure in report.failures
        ],
        "wall_s": time.perf_counter() - began,
    }


def measure_chaos(seeds: int = 30, max_seconds: float = 60.0) -> dict:
    """Chaos tier: a seeded fault-injection mini-campaign, gated on
    zero resilience-invariant violations.

    Replays *seeds* deterministic fault plans (torn writes, injected
    I/O and executor errors, latency spikes, worker kills over the
    thread, HTTP and process scenarios) against throwaway services and
    audits the resilience invariants — no hang, no lost job, no
    corrupt artifact served, every fired fault accounted for.  Capped
    at *max_seconds* so a slow box degrades coverage instead of
    blocking CI; shrinking is left to full ``hrms-chaos`` runs.
    """
    from repro.qa.chaos import ChaosConfig, run_chaos

    began = time.perf_counter()
    report = run_chaos(
        ChaosConfig(seeds=seeds, max_seconds=max_seconds, shrink=False)
    )
    return {
        "seeds": report.seeds,
        "jobs": report.jobs,
        "admitted": report.admitted,
        "settled": dict(report.settled),
        "scenarios": dict(report.scenarios),
        "faults_fired": dict(report.faults_fired),
        "faults_total": sum(report.faults_fired.values()),
        "rejected_submissions": report.rejected_submissions,
        "violations": len(report.violations),
        "violation_descriptions": [
            violation.describe() for violation in report.violations
        ],
        "wall_s": time.perf_counter() - began,
    }


def measure_conformance(workers: int = 4) -> dict:
    """Conformance tier: the golden kernel matrix, heuristics-only.

    Runs every bundled front-end kernel × every registered heuristic
    scheduler (+ the portfolio race) × every canonical machine through
    a live in-process scheduling service, oracle-checks every cell, and
    diffs the matching slice of the committed goldens under
    ``tests/goldens/conformance/``.  The exact (MILP) cells are left to
    ``hrms-conformance`` / the nightly pytest tier — they cost minutes
    where this tier costs seconds — but the goldens they are diffed
    against are the same files.
    """
    from repro.qa.conformance import (
        GOLDEN_DIRNAME,
        ConformanceConfig,
        diff_goldens,
        run_conformance,
    )

    began = time.perf_counter()
    report = run_conformance(
        ConformanceConfig(include_exact=False, workers=workers)
    )
    drift = diff_goldens(report, REPO_ROOT / GOLDEN_DIRNAME)
    return {
        "kernels": len(report.kernels()),
        "cells_ok": report.count("ok"),
        "cells_skipped": report.count("skipped"),
        "cells_failed": report.count("failed"),
        "oracle_checks": report.oracle_checks,
        "failures": len(report.failures),
        "failure_descriptions": report.failures[:10],
        "drift": len(drift),
        "drift_descriptions": drift[:10],
        "wall_s": time.perf_counter() - began,
    }


def measure_portfolio(size: int = 160) -> dict:
    """Portfolio tier: race 5 heuristics on the 160-op workload.

    Guards the racing engine's overhead (thread fan-out, scoring,
    verification) and — via the winner's II/MaxLive — the determinism
    of policy selection.  Uses the same seeded graph as the size tiers
    so the member schedules themselves are covered by the II guard
    there.
    """
    from repro.portfolio import race_portfolio

    members = ("hrms", "topdown", "bottomup", "slack", "sms")
    machine = perfect_club_machine()
    graph = random_ddg(random.Random(size), size, name=f"scale{size}")
    analysis = compute_mii(graph, machine)
    began = time.perf_counter()
    result = race_portfolio(
        graph, machine, analysis, members=members, member_budget=300.0
    )
    wall = time.perf_counter() - began
    completed = sum(1 for o in result.outcomes if o.status == "ok")
    score = result.winner_score
    return {
        "size": size,
        "members": list(members),
        "completed": completed,
        "wall_s": wall,
        "winner": result.winner,
        "ii": score.ii,
        "maxlive": score.maxlive,
    }


def measure_docs() -> dict:
    """Docs tier: the documentation consistency gate
    (``scripts/check_docs.py``).  Not recorded in the baseline."""
    from check_docs import check_docs

    problems = check_docs(REPO_ROOT)
    return {"problems": len(problems), "problem_descriptions": problems}


# -- the registry -----------------------------------------------------

#: Rule kind -> (failure test, problem text).  A failure test takes the
#: current value, the baseline's, the rule's bound and ``--threshold``;
#: the text may also use ``now_r``/``was_r``, their shortened reprs.
RULE_KINDS: dict[str, tuple[Callable[..., bool], str]] = {
    "exact": (lambda now, was, bound, t: now != was,
              "changed {was_r} -> {now_r}"),
    "true": (lambda now, was, bound, t: not now, "is {now_r}, must be true"),
    "zero": (lambda now, was, bound, t: bool(now), "is {now_r}, must be zero"),
    "floor": (lambda now, was, bound, t: now < bound,
              "{now:.3f} < floor {bound}"),
    "ceiling": (lambda now, was, bound, t: now > bound,
                "{now:.3f} > ceiling {bound}"),
    "lower": (lambda now, was, bound, t: bool(was) and now > was * t,
              "regressed {was:.4g} -> {now:.4g} (over {t}x)"),
    "higher": (lambda now, was, bound, t: bool(was) and now < was / t,
               "regressed {was:.4g} -> {now:.4g} (under 1/{t}x)"),
    "not_below": (lambda now, was, bound, t: bool(was) and now < was,
                  "fell {was_r} -> {now_r}"),
}
#: Kinds that compare against the baseline; they are skipped when the
#: baseline lacks the key.  The others are absolute.
BASELINE_KINDS = frozenset({"exact", "lower", "higher", "not_below"})


@dataclass(frozen=True)
class Rule:
    """One gated key of a tier and the kind of check it gets."""

    key: str
    kind: str
    bound: float | None = None
    #: Appended to the problem line, e.g. what broke or how to fix it.
    hint: str = ""
    #: Key of the failure descriptions a ``zero`` rule quotes.
    detail: str | None = None
    #: Derives the checked value from the row instead of ``row[key]``.
    value: Callable[[dict], Any] | None = None
    #: The rule applies only when ``when(row, baseline_row)`` holds.
    when: Callable[[dict, dict], bool] | None = None

    def describe(self) -> str:
        text = self.kind if self.bound is None else f"{self.kind} {self.bound}"
        return text if self.when is None else f"{text} if {self.when.__name__}"

    def check(self, row: dict, base: dict, threshold: float) -> str | None:
        """The problem with *row* against baseline row *base*, or None."""
        if self.when is not None and not self.when(row, base):
            return None
        if self.kind in BASELINE_KINDS and self.key not in base:
            return None
        fails, message = RULE_KINDS[self.kind]
        now = self.value(row) if self.value else row[self.key]
        was = base.get(self.key)
        if not fails(now, was, self.bound, threshold):
            return None
        problem = f"{self.key} " + message.format(
            now=now, was=was, bound=self.bound, t=threshold,
            now_r=_brief(now), was_r=_brief(was),
        )
        if self.detail:
            problem += ": " + "; ".join(map(str, row[self.detail][:3]))
        return f"{problem} — {self.hint}" if self.hint else problem


def _brief(value: Any, width: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def rules(kind: str, *keys: str, **options) -> tuple[Rule, ...]:
    """One *kind* rule, with the same *options*, for each of *keys*."""
    return tuple(Rule(key, kind, **options) for key in keys)


@dataclass(frozen=True)
class Tier:
    """One gate tier: what it measures, how it prints, what it gates."""

    name: str
    description: str
    measure: Callable[..., dict]
    #: ``str.format`` template over one measured row.
    summary: str
    rules: tuple[Rule, ...]
    #: The section is ``{size: row}`` and ``measure`` takes the sizes.
    per_size: bool = False
    #: The section is written to the baseline JSON.
    recorded: bool = True

    def rows(self, section: dict) -> dict[str, dict]:
        if self.per_size:
            return {f"size {size}": row for size, row in section.items()}
        return {self.name: section}


def cpus_cover_workers(row: dict, base: dict) -> bool:
    return row["cpus"] >= row["workers"]


def cpu_starved_like_baseline(row: dict, base: dict) -> bool:
    # Only compare speedups measured in the same regime: a baseline
    # recorded on a multi-core box (say 3x) is meaningless on a 1-CPU
    # container where ~0.9x is the physical ceiling.
    return row["cpus"] < row["workers"] and base.get("cpus", 0) < base.get(
        "workers", row["workers"]
    )


_SAME = "schedules are no longer identical"

#: Every tier, in run order.  ``--tier`` selects by name; ``--update``
#: writes the recorded sections in this order.
TIERS: tuple[Tier, ...] = (
    Tier(
        "sizes",
        "cold MII analysis, MinDist cold (Floyd–Warshall reference)/"
        "fresh (production)/warm + full HRMS schedule on "
        "seeded loops, deep HRMS search on the seed-offset-1 loops (II "
        "and circuit count identity gated)",
        measure_sizes,
        "mii {mii_s:.2e}s ({circuits} circuits)  "
        "mindist cold {mindist_cold_s:.2e}s fresh {mindist_fresh_s:.2e}s "
        "warm {mindist_warm_s:.2e}s  "
        "schedule cold {full_schedule_cold_s:.4f}s "
        "warm {full_schedule_warm_s:.4f}s  (II {ii}, {attempts} attempts)  "
        "deep {deep_hrms_s:.4f}s",
        (
            Rule("ii", "exact", hint=_SAME),
            Rule("circuits", "exact",
                 hint="circuit enumeration no longer finds the same set"),
            *rules("lower", "mii_s", "mindist_cold_s", "mindist_fresh_s",
                   "mindist_warm_s", "full_schedule_cold_s",
                   "full_schedule_warm_s", "deep_hrms_s"),
        ),
        per_size=True,
    ),
    Tier(
        "engine_sweep",
        "per-II `closure` vs per-II Floyd–Warshall on a multi-attempt "
        "160-op loop, plus /v1/batch vs individual submissions (speedup "
        "floors gated)",
        measure_engine_sweep,
        "{attempts}-attempt {size}-op search: per-II closure "
        "{sweep_s:.3f}s vs per-II Floyd–Warshall {fresh_s:.3f}s "
        "({sweep_speedup:.2f}x); batch of "
        "{batch_jobs} jobs {batch_jobs_per_s:.1f} vs "
        "{individual_jobs_per_s:.1f} jobs/s individually "
        "({batch_speedup:.2f}x)",
        (
            Rule("identical_schedules", "true",
                 hint="per-II closure must match per-II Floyd–Warshall"),
            Rule("identical_batch_iis", "true",
                 hint="the batch path must not change results"),
            Rule("sweep_speedup", "floor", SWEEP_SPEEDUP_TARGET,
                 hint="per-II closure over per-II Floyd–Warshall"),
            Rule("batch_speedup", "floor", BATCH_SPEEDUP_TARGET,
                 hint="/v1/batch over individual submissions"),
            *rules("exact", "ii", "attempts", "batch_iis", hint=_SAME),
            Rule("sweep_s", "lower"),
        ),
    ),
    Tier(
        "service",
        "live HTTP batch over a cold store (throughput + p95 latency)",
        measure_service,
        "{jobs} jobs in {wall_s:.2f}s ({throughput_jobs_per_s:.1f} "
        "jobs/s, p95 {p95_latency_s:.4f}s)",
        (
            Rule("throughput_jobs_per_s", "higher"),
            Rule("p95_latency_s", "lower"),
        ),
    ),
    Tier(
        "portfolio",
        "5-heuristic race on 160 ops (winner identity gated)",
        measure_portfolio,
        "{completed} members ok in {wall_s:.2f}s; winner {winner} "
        "(II {ii}, MaxLive {maxlive})",
        (
            *rules("exact", "winner", "ii", "maxlive",
                   hint="selection is no longer identical"),
            Rule("completed", "exact"),
            Rule("wall_s", "lower"),
        ),
    ),
    Tier(
        "procpool",
        "thread vs process backend throughput + artifact parity",
        measure_procpool,
        "{jobs} x {size}-op jobs on {workers} workers ({cpus} cpus): "
        "thread {thread_jobs_per_s:.1f} jobs/s, process "
        "{process_jobs_per_s:.1f} jobs/s ({speedup:.2f}x), artifacts "
        "identical: {identical_artifacts}",
        (
            Rule("identical_artifacts", "true",
                 hint="backend parity is broken"),
            Rule("iis", "exact", hint=_SAME),
            Rule("speedup", "floor", PROCPOOL_SCALING_TARGET,
                 when=cpus_cover_workers),
            Rule("speedup", "higher", when=cpu_starved_like_baseline),
            Rule("thread_jobs_per_s", "higher"),
        ),
    ),
    Tier(
        "qa",
        "fixed-seed mini fuzzing campaign (zero oracle failures gated)",
        measure_qa,
        "{cases} cases, {schedules} schedules, {checks} oracle checks, "
        "{skipped} skipped, {failures} failure(s) in {wall_s:.1f}s",
        (
            Rule("failures", "zero", detail="failure_descriptions"),
            *rules("exact", "cases", "schedules", "checks", "skipped",
                   hint="the campaign is no longer deterministic"),
            Rule("wall_s", "lower"),
        ),
    ),
    Tier(
        "chaos",
        "seeded fault-injection mini-campaign (zero invariant violations "
        "gated)",
        measure_chaos,
        "{seeds} seeds, {jobs} jobs ({admitted} admitted), "
        "{faults_total} faults, {violations} violation(s) in {wall_s:.1f}s",
        (
            Rule("violations", "zero", detail="violation_descriptions"),
            Rule("faults_fired", "zero",
                 value=lambda row: sorted(row["faults_fired"].keys() - POINTS),
                 hint="faults fired at unknown injection points"),
            Rule("faults_total", "true",
                 hint="the campaign injected no faults"),
            Rule("admitted", "true",
                 hint="no resubmitted request was answered at admission"),
            Rule("settled", "zero",
                 value=lambda row: row["jobs"] - sum(row["settled"].values()),
                 hint="jobs submitted minus jobs settled"),
            Rule("seeds", "not_below", hint="wall budget hit?"),
            Rule("wall_s", "lower"),
        ),
    ),
    Tier(
        "obs",
        "tracing overhead <= 2%, artifact parity, stats determinism",
        measure_obs,
        "{size}-op schedule {disabled_s:.4f}s disarmed, {enabled_s:.4f}s "
        "traced ({overhead_ratio:.3f}x), artifacts identical: "
        "{identical_artifacts}, stats deterministic: "
        "{stats_deterministic}",
        (
            Rule("identical_artifacts", "true",
                 hint="instrumentation is perturbing the schedules"),
            Rule("stats_deterministic", "true",
                 hint="the semantic layer is non-deterministic"),
            Rule("overhead_ratio", "ceiling", OBS_OVERHEAD_TARGET),
            Rule("stats_rows", "exact",
                 hint="rerun with --update if intended"),
            Rule("disabled_s", "lower"),
        ),
    ),
    Tier(
        "conformance",
        "golden kernel matrix, heuristics-only (zero drift gated)",
        measure_conformance,
        "{kernels} kernels, {cells_ok} cells ok / {cells_skipped} "
        "skipped, {oracle_checks} oracle checks, {failures} failure(s), "
        "{drift} drift(s) in {wall_s:.1f}s",
        (
            Rule("failures", "zero", detail="failure_descriptions"),
            Rule("drift", "zero", detail="drift_descriptions",
                 hint="re-record with `hrms-conformance --bless`"),
            *rules("exact", "kernels", "cells_ok", "cells_skipped",
                   "oracle_checks"),
            Rule("wall_s", "lower"),
        ),
    ),
    Tier(
        "docs",
        "documentation consistency gate (scripts/check_docs.py)",
        measure_docs,
        "{problems} problem(s)",
        (Rule("problems", "zero", detail="problem_descriptions"),),
        recorded=False,
    ),
)


def check_tier(
    tier: Tier, section: dict, baseline: dict, threshold: float
) -> list[str]:
    """Every rule of *tier* checked on *section* against its *baseline*
    section (``{}`` when the baseline has none)."""
    base_rows = tier.rows(baseline)
    problems = []
    for label, row in tier.rows(section).items():
        base = base_rows.get(label, {})
        for rule in tier.rules:
            problem = rule.check(row, base, threshold)
            if problem:
                problems.append(f"{label}: {problem}")
    return problems


def build_document(measured: dict, baseline_doc: dict) -> dict:
    """The baseline JSON for this run: measured sections, per-size rows
    merged into the old ones, and the old sections of tiers that did
    not run carried forward."""
    document = {
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": "min-of-N timings from scripts/perf_check.py; "
            "see PERFORMANCE.md",
        },
    }
    for tier in TIERS:
        if not tier.recorded:
            continue
        old = baseline_doc.get(tier.name)
        new = measured.get(tier.name)
        if tier.per_size and old is not None and new is not None:
            # Keep sizes this run did not measure (e.g. the slow 512).
            new = {**old, **new}
        section = old if new is None else new
        if section is not None:
            document[tier.name] = section
    # Seed numbers are historical context; carry them forward.
    if "seed_reference" in baseline_doc:
        document["seed_reference"] = baseline_doc["seed_reference"]
    return document


def build_parser() -> argparse.ArgumentParser:
    names = [tier.name for tier in TIERS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline JSON (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZES)),
        help="comma-separated loop sizes (default: %(default)s; "
        "add 512 for the large tier — slow)",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="failure ratio vs baseline (default: 2.0)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline with this run's numbers",
    )
    parser.add_argument(
        "--list-tiers", action="store_true",
        help="print the tier catalog (name, description, gated keys and "
             "their rules) and exit",
    )
    parser.add_argument(
        "--tier", action="append", choices=names, metavar="NAME",
        help="run only the named tier(s) — repeatable; one of "
        f"{', '.join(names)}.  Default: every tier",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_tiers:
        for tier in TIERS:
            print(f"{tier.name:<14} {tier.description}")
            for rule in tier.rules:
                print(f"{'':<16}{rule.key:<24} {rule.describe()}")
        return 0
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        parser.error(f"--sizes wants comma-separated integers, got "
                     f"{args.sizes!r}")
    if not sizes or any(size < 2 for size in sizes):
        parser.error(f"--sizes wants loop sizes >= 2, got {args.sizes!r}")

    selected = [t for t in TIERS if not args.tier or t.name in args.tier]
    measured = {}
    for tier in selected:
        print(f"perf_check: {tier.name} tier ...")
        section = tier.measure(sizes) if tier.per_size else tier.measure()
        for label, row in tier.rows(section).items():
            print(f"  {label}: {tier.summary.format(**row)}")
        measured[tier.name] = section

    exists = args.baseline.exists()
    baseline_doc = json.loads(args.baseline.read_text()) if exists else {}
    if args.update:
        document = build_document(measured, baseline_doc)
        args.baseline.write_text(json.dumps(document, indent=2) + "\n")
        verb = "updated" if exists else "recorded"
        print(f"perf_check: baseline {verb} -> {args.baseline}")
        return 0
    if not exists:
        print(
            f"perf_check: no baseline at {args.baseline}; "
            "run with --update to record one"
        )
        return 1
    problems = [
        problem
        for tier in selected
        for problem in check_tier(
            tier, measured[tier.name], baseline_doc.get(tier.name, {}),
            args.threshold,
        )
    ]
    if problems:
        print("\nperf_check: PERFORMANCE REGRESSION")
        for problem in problems:
            print(f"  !! {problem}")
        return 1
    print(f"perf_check: ok (within {args.threshold}x of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
