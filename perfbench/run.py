#!/usr/bin/env python3
"""Layer-attributed benchmark of the HRMS scheduling service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload perfect-club-cold --seed 1
    python3 perfbench/run.py --workload kernel-mix --seed 1 --trace 1
    python3 perfbench/run.py --workload all --trace both --seconds 30

``--trace 0`` starts a stock ``hrms-serve`` (fresh store per round),
drives it over HTTP in a closed loop for about ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` runs one HTTP round for
the job-record metrics, then replays the same requests in-process with
and without layer wrappers and prints the per-layer metrics.  Every
completed artifact is re-verified; a rejection makes the exit status 1.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hrmsbench  # noqa: E402

hrmsbench.require_source_tree()

from hrmsbench import WORK_DIR, layers, workloads  # noqa: E402
from hrmsbench.check import (  # noqa: E402
    digest_outcomes,
    schedule_digest,
    verify_round,
)
from hrmsbench.client import Outcome, drive  # noqa: E402
from hrmsbench.server import Server  # noqa: E402
from hrmsbench.stats import percentile  # noqa: E402

#: Client poll interval while a job is in flight: four times finer than
#: the shipped client's 20 ms.  At 2 ms the polls (one connection each)
#: took about 15% of the server's throughput on perfect-club-cold.
POLL_S = 0.005
#: A request not settled after this long counts as lost.
REQUEST_TIMEOUT_S = 120.0
#: Server spawns per run behind the ``setup_s`` median.
MIN_SETUP_SAMPLES = 5
#: Workers and closed-loop requesters: one per available CPU.
NPROC = len(os.sched_getaffinity(0))

#: End-to-end metric -> unit.
END_TO_END = {
    "schedules_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "ratio",
    "mii_hit_frac": "ratio",
    "maxlive_mean": "registers",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics beyond ``<layer>.s`` / ``<layer>.calls`` -> unit.
LAYER_EXTRAS = {
    "mii.circuits.found": "count",
    "schedulers.useful_frac": "ratio",
    "machine.mrt.fail_frac": "ratio",
    "engine.mindist.fresh": "count",
    "engine.mindist.incremental": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "replay.wall_s": "s",
    "service.queue.wait_ms": "ms",
    "service.exec_ms": "ms",
    "service.http.overhead_ms": "ms",
    "service.retries": "count",
    "service.failed_retried": "count",
    "service.store.hit_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(LAYER_EXTRAS)
    return units


# ----------------------------------------------------------------------
@dataclass
class Round:
    """One fresh server driven through the whole request stream."""

    setup_s: float
    wall_s: float
    rss_mb: float
    outcomes: list[Outcome]
    rejected: dict[int, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "done")


@contextlib.contextmanager
def fresh_server(name: str):
    """A started server on a fresh store; yields ``(server, setup_s)``."""
    store = WORK_DIR / name
    server = Server(store, workers=NPROC, log=WORK_DIR / "server.log")
    try:
        yield server, server.start()
    finally:
        server.stop()
        shutil.rmtree(store, ignore_errors=True)


def http_round(workload, number: int, verify: bool) -> Round:
    with fresh_server(f"store-{number}") as (server, setup):
        outcomes, wall = drive(
            server.host,
            server.port,
            workload.requests,
            requesters=NPROC,
            poll_s=POLL_S,
            timeout_s=REQUEST_TIMEOUT_S,
        )
        rss = server.peak_rss_mb()
        rejected = (
            verify_round(server.host, server.port, workload, outcomes)
            if verify
            else {}
        )
    return Round(setup, wall, rss, outcomes, rejected)


def setup_only(number: int) -> float:
    with fresh_server(f"setup-{number}") as (_, setup):
        return setup


def failures_by_type(rounds: list[Round]) -> dict[str, int]:
    counts: collections.Counter = collections.Counter()
    for rnd in rounds:
        for outcome in rnd.outcomes:
            if outcome.status != "done":
                counts[outcome.error or outcome.status] += 1
            elif outcome.index in rnd.rejected:
                counts["OutputCheckRejected"] += 1
    return dict(sorted(counts.items()))


# ----------------------------------------------------------------------
@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    meta: dict

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def end_to_end(workload, seconds: float) -> Result:
    """Rounds of fresh servers until *seconds* are used."""
    rounds: list[Round] = []
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        rounds.append(http_round(workload, len(rounds), verify=not rounds))
        last = time.perf_counter() - round_began
        if time.perf_counter() - began + last > seconds:
            break
    setups = [rnd.setup_s for rnd in rounds]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_only(len(setups)))

    first = rounds[0]
    pooled = [o for rnd in rounds for o in rnd.outcomes]
    attempted = len(pooled)
    rejected = sum(len(rnd.rejected) for rnd in rounds)
    ok = sum(1 for o in pooled if o.status == "done") - rejected
    # Latency percentiles are taken per round and the median round is
    # reported, so one round caught in a slow spell of the host does not
    # drag the whole pool.
    latencies_ms = [
        [o.latency_s * 1000.0 for o in rnd.outcomes] for rnd in rounds
    ]
    at_mii = sum(
        1
        for rnd in rounds
        for o in rnd.outcomes
        if o.status == "done"
        and o.index not in rnd.rejected
        and o.result["ii"] == o.result["mii"]
    )
    maxlive = {
        o.result["artifact"]: o.result["maxlive"]
        for o in first.outcomes
        if o.status == "done" and o.index not in first.rejected
    }
    digests = [
        schedule_digest(workload.labels, digest_outcomes(rnd.outcomes))
        for rnd in rounds
    ]
    metrics = {
        "schedules_per_s": statistics.median(
            rnd.completed / rnd.wall_s for rnd in rounds
        ),
        "latency_p50_ms": statistics.median(
            percentile(samples, 50) for samples in latencies_ms
        ),
        "latency_p90_ms": statistics.median(
            percentile(samples, 90) for samples in latencies_ms
        ),
        "ok_frac": ok / attempted,
        "mii_hit_frac": at_mii / attempted,
        "maxlive_mean": statistics.fmean(maxlive.values()) if maxlive else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rnd.rss_mb for rnd in rounds),
    }
    meta = {
        "rounds": len(rounds),
        "round_schedules_per_s": [rnd.completed / rnd.wall_s for rnd in rounds],
        "schedule_digest": digests[0],
        "round_digests_agree": len(set(digests)) == 1,
        "samples": {
            "schedules_per_s": len(rounds),
            "latency_p50_ms": [len(samples) for samples in latencies_ms],
            "latency_p90_ms": [len(samples) for samples in latencies_ms],
            "ok_frac": attempted,
            "mii_hit_frac": attempted,
            "maxlive_mean": len(maxlive),
            "setup_s": len(setups),
            "peak_rss_mb": len(rounds),
        },
        "failures_by_type": failures_by_type(rounds),
        "service.failed_retried": failed_retried(pooled),
        "rejected": [
            f"{workload.labels[i]}: {why}"
            for rnd in rounds
            for i, why in sorted(rnd.rejected.items())
        ][:10],
    }
    correct = rejected == 0 and len(set(digests)) == 1
    return Result(
        correct, attempted, attempted - ok, metrics, END_TO_END, meta
    )


def failed_retried(outcomes: list[Outcome]) -> int:
    return sum(
        1
        for o in outcomes
        if o.status == "failed" and o.record and o.record["attempts"] > 1
    )


def job_record_metrics(rnd: Round) -> dict[str, float]:
    """Queue, execution and HTTP shares from the server's job records."""
    records = [
        (o, o.record)
        for o in rnd.outcomes
        if o.record and o.record.get("started_at") and o.record.get("finished_at")
    ]
    queue = [(r["started_at"] - r["submitted_at"]) * 1000 for _, r in records]
    execute = [(r["finished_at"] - r["started_at"]) * 1000 for _, r in records]
    http = [
        (o.latency_s - (r["finished_at"] - r["submitted_at"])) * 1000
        for o, r in records
    ]
    done = [o for o in rnd.outcomes if o.status == "done"]
    return {
        "service.queue.wait_ms": percentile(queue, 50),
        "service.exec_ms": percentile(execute, 50),
        "service.http.overhead_ms": percentile(http, 50),
        "service.retries": float(
            sum(r["attempts"] - 1 for _, r in records)
        ),
        "service.failed_retried": float(failed_retried(rnd.outcomes)),
        "service.store.hit_frac": (
            sum(1 for o in done if o.result.get("cached")) / len(done)
            if done
            else 0.0
        ),
    }


def traced(workload, seconds: float) -> Result:
    """One HTTP round for job records, then plain/traced replay pairs."""
    began = time.perf_counter()
    rnd = http_round(workload, 0, verify=True)
    http_digest = schedule_digest(workload.labels, digest_outcomes(rnd.outcomes))

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    totals: list[dict[str, tuple[float, int]]] = []
    counts: list[dict[str, int]] = []
    replay_digests: set[str] = set()
    replay_errors: collections.Counter = collections.Counter()
    # Lazy imports and first-use set-up land in an unmeasured warm-up on
    # a fifth of the stream, not in whichever replay happens to go first.
    layers.replay(workload.head(max(20, len(workload) // 5)))
    while True:
        plain = layers.replay(workload)
        tracer = layers.LayerTracer()
        with tracer:
            observed = layers.replay(workload, tracer)
        plain_walls.append(plain.wall_s)
        traced_walls.append(observed.wall_s)
        totals.append(tracer.totals())
        counts.append(tracer.counts())
        for run in (plain, observed):
            replay_errors.update(
                f"replay:{outcome}"
                for outcome in run.outcomes
                if isinstance(outcome, str)
            )
            replay_digests.add(schedule_digest(workload.labels, run.outcomes))
        pair_s = plain.wall_s + observed.wall_s
        if time.perf_counter() - began + pair_s > seconds:
            break

    pairs = len(totals)
    metrics: dict[str, float] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.s"] = sum(t[layer][0] for t in totals) / pairs
        metrics[f"{layer}.calls"] = sum(t[layer][1] for t in totals) / pairs

    def mean_count(name: str) -> float:
        return sum(c.get(name, 0) for c in counts) / pairs

    attempts = metrics["schedulers.attempt.calls"]
    scans = metrics["machine.mrt.calls"]
    metrics["mii.circuits.found"] = mean_count("mii.circuits.found")
    metrics["schedulers.useful_frac"] = (
        mean_count("schedulers.attempt.ok") / attempts if attempts else 0.0
    )
    metrics["machine.mrt.fail_frac"] = (
        mean_count("machine.mrt.none") / scans if scans else 0.0
    )
    metrics["engine.mindist.fresh"] = mean_count("fresh_solves")
    metrics["engine.mindist.incremental"] = mean_count("incremental_steps")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    metrics["trace.unattributed_frac"] = statistics.fmean(
        t[layers.ROOT_LAYER][0] / wall for t, wall in zip(totals, traced_walls)
    )
    metrics["replay.wall_s"] = statistics.median(plain_walls)
    metrics.update(job_record_metrics(rnd))

    http_failed = sum(1 for o in rnd.outcomes if o.status != "done")
    attempted = len(rnd.outcomes) + 2 * pairs * len(workload)
    failed = http_failed + len(rnd.rejected) + sum(replay_errors.values())
    agree = replay_digests == {http_digest}
    meta = {
        "replay_pairs": pairs,
        "schedule_digest": http_digest,
        "replay_digests_agree": agree,
        "failures_by_type": {**failures_by_type([rnd]), **replay_errors},
        "layer_groups_share": {
            name: sum(metrics[f"{layer}.s"] for layer in group)
            / statistics.fmean(traced_walls)
            for name, group in (
                ("placement", layers.PLACEMENT_GROUP),
                ("mii", layers.MII_GROUP),
                ("front", layers.FRONT_GROUP),
            )
        },
    }
    return Result(
        not rnd.rejected and agree,
        attempted,
        failed,
        metrics,
        per_layer_units(),
        meta,
    )


# ----------------------------------------------------------------------
def describe(name: str, seed: int, trace: bool, workload, result: Result) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    mode = "traced replay" if trace else "end-to-end"
    print(f"# {name} seed={seed} {mode}: {len(workload)} requests, "
          f"inputs {workload.digest()}")
    samples = result.meta.get("samples", {})
    for metric, value in result.metrics.items():
        count = samples.get(metric)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {metric:32s} {value:14.6g} {result.units[metric]}{suffix}")
    print(f"  schedule digest {result.meta['schedule_digest']}")
    print(json.dumps({"meta": result.meta}, sort_keys=True))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> Result:
    workload = workloads.build(name, seed)
    result = (traced if trace else end_to_end)(workload, seconds)
    result.meta.update(
        {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "request_count": len(workload),
            "input_digest": workload.digest(),
            "nproc": NPROC,
            "python": platform.python_version(),
            "backend": "thread",
            "workers": NPROC,
            "requesters": NPROC,
            "poll_interval_ms": POLL_S * 1000,
            "seconds": seconds,
        }
    )
    describe(name, seed, trace, workload, result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*workloads.WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument(
        "--trace", choices=("0", "1", "both"), default="0",
        help="0: end-to-end over HTTP; 1: traced per-layer replay; both",
    )
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            for trace in modes:
                results.append(run_one(name, args.seed, args.seconds, trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for result in results:
        print(result.line(), flush=True)
    return 0 if all(result.correct for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
