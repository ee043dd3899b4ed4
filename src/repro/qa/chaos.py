"""Seeded chaos campaign against the scheduling service.

Where :mod:`repro.qa.campaign` fuzzes the *schedulers* with generated
graphs, this module fuzzes the *service* with generated faults: each
seed deterministically derives a :class:`~repro.service.faults
.FaultPlan` (store I/O errors, torn envelope writes, scheduler
latency and exceptions, worker kills, pickle failures, slow/failed
HTTP handlers, a force-opened circuit breaker), runs a small job mix
against a live service under that plan, and then audits the wreckage
against the resilience invariants:

* **No job lost or stuck** — every accepted job settles (done, failed
  or timeout) within the settle budget.  A share of each seed's
  requests is resubmitted after the first wave settles, so repeats
  answered at admission are audited like any other job.
* **No corrupt or degraded artifact served as canonical** — every
  artifact a done job points at either integrity-verifies and passes
  the QA oracle battery, or is quarantined and reads as a miss; no
  stored envelope anywhere carries ``degraded: true``.
* **Metrics agree with the injected faults** — the ``faults_injected``
  gauge matches the injector's own count, settle counters add up to
  submissions, observed worker kills imply observed respawns, and a
  fault-free control seed leaves no quarantine or degradation behind.

Scenario mix: most seeds run the in-process thread backend (fast,
exercises store/executor/breaker faults); a periodic seed runs over a
live HTTP server (exercises handler faults and the client's retry
budget); another periodic seed runs the process-pool backend
(exercises worker kills, pickle failures, and supervision).

Everything is a pure function of ``(config, seed)``, so a violation is
reproducible from its seed alone, and a failing plan is minimized with
:func:`repro.qa.shrink.shrink_list` — re-running the seed with ever
fewer rules armed until no single rule can be dropped.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass, field

from repro.errors import ReproError, ServiceError
from repro.graph.ddg import DependenceGraph
from repro.graph.serialization import graph_to_dict
from repro.qa.profiles import profile_by_name
from repro.service import faults
from repro.service.faults import FaultPlan, FaultRule

#: Points armed on in-process (thread backend) seeds.
THREAD_POOL_POINTS = (
    "store.get.io",
    "store.put.io",
    "store.put.torn",
    "executor.latency",
    "executor.error",
    "chaos.breaker.trip",
)

#: Extra points armed on live-HTTP seeds (thread backend underneath).
HTTP_POOL_POINTS = THREAD_POOL_POINTS + ("api.latency", "api.error")

#: Points armed on process-backend seeds.  Worker processes never see
#: the parent's injector, so only the parent-side hooks (the dispatcher
#: proxy) are meaningful here.
PROCESS_POOL_POINTS = ("procpool.kill", "procpool.pickle")

#: Scheduler mix cycled across a seed's jobs — the portfolio entry is
#: what the breaker/degradation path bites on.
JOB_SCHEDULERS = ("hrms", "topdown", "portfolio", "hrms")

#: Share of a seed's requests submitted a second time once the first
#: wave has settled: repeats of done requests are answered at admission
#: (the service's request alias), so torn writes and store read faults
#: reach that path too.
RESUBMIT_SHARE = 0.5


@dataclass(frozen=True)
class ChaosConfig:
    """What one chaos campaign sweeps."""

    seeds: int = 50
    seed_base: int = 0
    #: Jobs submitted per seed.
    jobs_per_seed: int = 4
    #: Machine every job schedules against (generic: accepts any graph).
    machine: str = "generic4"
    #: Every Nth seed runs the process-pool backend (0 disables).
    process_stride: int = 10
    #: Every Nth seed runs over a live HTTP server (0 disables).
    http_stride: int = 7
    #: Wall-clock budget; checked between seeds (None = seeds only).
    max_seconds: float | None = None
    #: How long one seed's jobs may take to settle before the
    #: no-job-lost-or-stuck invariant is declared violated.
    settle_timeout: float = 120.0
    #: Minimize a failing seed's fault plan by re-running it.
    shrink: bool = True
    #: Re-run budget for one plan shrink.
    shrink_budget: int = 6


@dataclass
class ChaosViolation:
    """One invariant violation, reproducible from its coordinates."""

    seed: int
    scenario: str
    invariant: str
    message: str
    #: The (possibly shrunk) fault plan that reproduces the violation.
    plan: dict = field(default_factory=dict)

    def describe(self) -> str:
        armed = ", ".join(
            rule["point"] for rule in self.plan.get("rules", ())
        ) or "no faults"
        return (
            f"seed={self.seed} [{self.scenario}] {self.invariant}: "
            f"{self.message} (armed: {armed})"
        )


@dataclass
class ChaosReport:
    """What one chaos campaign observed."""

    seeds: int = 0
    jobs: int = 0
    #: Jobs the services settled at admission (resubmitted repeats).
    admitted: int = 0
    settled: dict[str, int] = field(default_factory=dict)
    #: Aggregate fault fires per injection point across every seed.
    faults_fired: dict[str, int] = field(default_factory=dict)
    scenarios: dict[str, int] = field(default_factory=dict)
    #: Submissions the injected HTTP faults turned away (500s on POST).
    rejected_submissions: int = 0
    violations: list[ChaosViolation] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = (
            "ok" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        )
        fired = sum(self.faults_fired.values())
        states = ", ".join(
            f"{count} {name}" for name, count in sorted(self.settled.items())
        ) or "none settled"
        return (
            f"{self.seeds} seed(s), {self.jobs} job(s) ({states}; "
            f"{self.admitted} admitted), "
            f"{fired} fault(s) injected across "
            f"{len(self.faults_fired)} point(s) in "
            f"{self.wall_seconds:.1f}s: {status}"
        )


def scenario_for(index: int, config: ChaosConfig) -> str:
    """Which scenario the *index*-th seed of a campaign runs."""
    if (
        config.process_stride
        and index % config.process_stride == config.process_stride - 1
    ):
        return "process"
    if (
        config.http_stride
        and index % config.http_stride == config.http_stride - 1
    ):
        return "http"
    return "thread"


def plan_for(seed: int, scenario: str) -> FaultPlan:
    """The deterministic fault plan a (seed, scenario) pair arms.

    Roughly one seed in four arms nothing — those are the control runs
    the clean-side-effects invariant checks.
    """
    pool = {
        "thread": THREAD_POOL_POINTS,
        "http": HTTP_POOL_POINTS,
        "process": PROCESS_POOL_POINTS,
    }[scenario]
    rng = random.Random(f"hrms-chaos-plan-{scenario}-{seed}")
    count = rng.randint(0, min(3, len(pool)))
    rules = []
    for point in sorted(rng.sample(list(pool), count)):
        # One kill per seed: each costs a pool respawn (~a second).
        max_fires = 1 if point == "procpool.kill" else rng.randint(1, 3)
        rules.append(
            FaultRule(
                point,
                probability=rng.choice((0.25, 0.5, 1.0)),
                max_fires=max_fires,
                delay_s=0.2 if point.endswith("latency") else 0.0,
            )
        )
    return FaultPlan(seed=seed, rules=tuple(rules))


def _jobs_for(
    seed: int, config: ChaosConfig, plan: FaultPlan
) -> list[tuple[dict, DependenceGraph]]:
    """The request mix one seed submits, with each request's graph."""
    rng = random.Random(f"hrms-chaos-jobs-{seed}")
    tiny = profile_by_name("tiny")
    baseline = profile_by_name("baseline")
    latency_armed = any(
        rule.point == "executor.latency" for rule in plan.rules
    )
    requests = []
    for j in range(config.jobs_per_seed):
        profile = tiny if j % 2 else baseline
        graph = profile.build(seed * 1000 + j, prefix="chaos")
        request = {
            "kind": "schedule",
            "graph": graph_to_dict(graph),
            "machine": config.machine,
            "scheduler": JOB_SCHEDULERS[j % len(JOB_SCHEDULERS)],
        }
        if j == config.jobs_per_seed - 1 and latency_armed:
            # A tight deadline under injected latency: this job should
            # settle in the *timeout* status — which is still settled,
            # so the no-lost-jobs invariant covers the deadline path.
            request["timeout"] = 0.05
        elif rng.random() < 0.25:
            request["timeout"] = 30.0
        requests.append((request, graph))
    return requests


def _parse_gauge(metrics_text: str, name: str) -> float | None:
    for line in metrics_text.splitlines():
        parts = line.rsplit(" ", 1)
        if len(parts) == 2 and parts[0] == name:
            try:
                return float(parts[1])
            except ValueError:
                return None
    return None


def _wait_settled(jobs, deadline: float) -> bool:
    from repro.service.jobs import JobStatus

    while any(job.status not in JobStatus.SETTLED for job in jobs):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def _audit(
    service,
    jobs,
    graphs: dict[str, DependenceGraph],
    fired: dict[str, int],
    metrics_gauge: float | None,
    seed: int,
    scenario: str,
    plan: FaultPlan,
) -> list[ChaosViolation]:
    """Run every post-mortem invariant check against a settled seed.

    Called with the injector already deactivated, so store reads here
    are clean — a corrupt envelope quarantines, it cannot be served.
    """
    from repro.qa.oracles import verify_artifact_payload
    from repro.service.jobs import JobStatus

    plan_dict = plan.to_dict()

    def violation(invariant: str, message: str) -> ChaosViolation:
        return ChaosViolation(
            seed=seed,
            scenario=scenario,
            invariant=invariant,
            message=message,
            plan=plan_dict,
        )

    found: list[ChaosViolation] = []

    # 1. No job lost or stuck.
    for job in jobs:
        if job.status not in JobStatus.SETTLED:
            found.append(
                violation(
                    "job-stuck",
                    f"job {job.id} still {job.status!r} after the "
                    "settle budget",
                )
            )

    # 2a. Done artifacts verify (or are honestly gone — a torn write
    # quarantines on read, which is a miss, never corrupt data).
    for job in jobs:
        if job.status != JobStatus.DONE or job.kind != "schedule":
            continue
        key = job.result["artifact"]
        envelope = service.store.get(key)
        if envelope is None:
            continue
        if job.result.get("degraded") and envelope["kind"] == "portfolio":
            found.append(
                violation(
                    "degraded-canonical",
                    f"degraded job {job.id} points at a portfolio "
                    f"envelope {key[:12]}…",
                )
            )
            continue
        payload = (
            envelope["payload"]["schedule"]
            if envelope["kind"] == "portfolio"
            else envelope["payload"]
        )
        report = verify_artifact_payload(payload, graphs[job.id])
        if not report["ok"]:
            bad = [c["oracle"] for c in report["checks"] if not c["ok"]]
            found.append(
                violation(
                    "artifact-oracle",
                    f"artifact {key[:12]}… of job {job.id} fails "
                    f"oracle(s) {', '.join(bad)}",
                )
            )

    # 2b. Nothing stored anywhere is marked degraded.
    for key in service.store.iter_keys():
        envelope = service.store.get(key)
        if envelope is not None and envelope["payload"].get("degraded"):
            found.append(
                violation(
                    "degraded-canonical",
                    f"stored envelope {key[:12]}… carries degraded=true",
                )
            )

    # 3. Counter consistency.
    metrics = service.metrics
    submitted = metrics.counter("jobs_submitted")
    settled = (
        metrics.counter("jobs_done")
        + metrics.counter("jobs_failed")
        + metrics.counter("jobs_timeout")
    )
    if submitted != settled:
        found.append(
            violation(
                "counter-consistency",
                f"{submitted} submitted but {settled} settled",
            )
        )
    if metrics_gauge is not None and metrics_gauge != sum(fired.values()):
        found.append(
            violation(
                "counter-consistency",
                f"faults_injected gauge says {metrics_gauge:g} but the "
                f"injector fired {sum(fired.values())}",
            )
        )
    if fired.get("procpool.kill"):
        # A killed worker must be observed as a respawn; the supervisor
        # sweeps every 0.5s, so give it a moment.
        deadline = time.monotonic() + 5.0
        while (
            metrics.counter("worker_respawns") < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        if metrics.counter("worker_respawns") < 1:
            found.append(
                violation(
                    "kill-unobserved",
                    f"{fired['procpool.kill']} worker kill(s) fired "
                    "but no respawn was recorded",
                )
            )
    if not any(fired.values()):
        # Control seed: a fault-free run must leave no scar tissue.
        scars = []
        if metrics.counter("portfolios_degraded"):
            scars.append("degraded portfolio answers")
        if service.store.stats().quarantined:
            scars.append("quarantined envelopes")
        if scars:
            found.append(
                violation(
                    "clean-run-side-effects",
                    f"no fault fired, yet: {', '.join(scars)}",
                )
            )
    return found


@dataclass
class _SeedOutcome:
    jobs: int = 0
    admitted: int = 0
    settled: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    rejected: int = 0
    violations: list[ChaosViolation] = field(default_factory=list)


def _run_seed(
    seed: int, scenario: str, plan: FaultPlan, config: ChaosConfig
) -> _SeedOutcome:
    """One seed end-to-end: build the service, submit the mix under the
    plan's injector, settle, audit."""
    from repro.service.api import SchedulingService, ServiceServer
    from repro.service.procpool import ExecutorConfig

    outcome = _SeedOutcome()
    requests = _jobs_for(seed, config, plan)
    exec_config = ExecutorConfig(
        backend="process" if scenario == "process" else "thread",
        workers=2,
        # Tight backoff keeps the campaign's transient retries fast.
        retry_base_delay=0.01,
        retry_max_delay=0.1,
    )
    with tempfile.TemporaryDirectory(prefix="hrms-chaos-") as tmp:
        if scenario == "http":
            server = ServiceServer(tmp, config=exec_config).start()
            service = server.service
        else:
            server = None
            service = SchedulingService(tmp, config=exec_config).start()
        try:
            graphs: dict[str, DependenceGraph] = {}
            jobs = []
            with faults.injected(plan) as injector:
                if injector.should_fire("chaos.breaker.trip"):
                    service.executor.breaker.force_open()
                client = None
                if server is not None:
                    from repro.service.client import ServiceClient

                    # Retries must outlast the worst armed max_fires (3)
                    # so polling always gets through; injected 500s on
                    # submission are shed work, not lost work.
                    client = ServiceClient(
                        server.url, retries=4, retry_backoff=0.02
                    )

                def submit(request: dict, graph: DependenceGraph) -> None:
                    if client is None:
                        job = service.submit(request)
                    else:
                        try:
                            job = service.job(client.submit(request))
                        except ServiceError:
                            outcome.rejected += 1
                            return
                    jobs.append(job)
                    graphs[job.id] = graph

                for request, graph in requests:
                    submit(request, graph)
                settled_in_time = _wait_settled(
                    jobs, time.monotonic() + config.settle_timeout
                )
                if settled_in_time:
                    rng = random.Random(f"hrms-chaos-resubmit-{seed}")
                    count = max(1, round(RESUBMIT_SHARE * len(requests)))
                    for request, graph in rng.sample(requests, count):
                        submit(request, graph)
                    settled_in_time = _wait_settled(
                        jobs, time.monotonic() + config.settle_timeout
                    )
                if client is not None and settled_in_time:
                    # Exercise the HTTP read path under fire too.
                    for job in jobs:
                        record = client.job(job.id)
                        assert record["id"] == job.id
                    gauge = _parse_gauge(
                        client.metrics(), "hrms_faults_injected"
                    )
                else:
                    gauge = _parse_gauge(
                        service.metrics_text(), "hrms_faults_injected"
                    )
                outcome.fired = injector.fired()
            outcome.jobs = len(jobs)
            outcome.admitted = sum(job.admitted for job in jobs)
            for job in jobs:
                outcome.settled[job.status] = (
                    outcome.settled.get(job.status, 0) + 1
                )
            outcome.violations = _audit(
                service, jobs, graphs, outcome.fired, gauge,
                seed, scenario, plan,
            )
        finally:
            if server is not None:
                server.stop(abort=True)
            else:
                service.stop(abort=True)
    return outcome


def _shrink_plan(
    seed: int,
    scenario: str,
    plan: FaultPlan,
    invariant: str,
    config: ChaosConfig,
) -> FaultPlan:
    """Minimize *plan* while re-running the seed still violates
    *invariant* — each predicate evaluation is a full seed replay."""
    from repro.qa.shrink import shrink_list

    def still_violates(rules: list[FaultRule]) -> bool:
        candidate = FaultPlan(seed=plan.seed, rules=tuple(rules))
        try:
            replay = _run_seed(seed, scenario, candidate, config)
        except ReproError:
            return False
        return any(v.invariant == invariant for v in replay.violations)

    minimal = shrink_list(
        list(plan.rules),
        still_violates,
        max_evaluations=config.shrink_budget,
    )
    return FaultPlan(seed=plan.seed, rules=tuple(minimal))


def run_chaos(
    config: ChaosConfig | None = None,
    *,
    log=None,
) -> ChaosReport:
    """Run one chaos campaign; violations come back collected (and
    their plans shrunk), never raised mid-campaign."""
    config = config or ChaosConfig()
    say = log or (lambda message: None)
    report = ChaosReport()
    began = time.perf_counter()
    for index in range(config.seeds):
        if (
            config.max_seconds is not None
            and time.perf_counter() - began >= config.max_seconds
        ):
            say(f"wall budget spent after {report.seeds} seed(s)")
            break
        seed = config.seed_base + index
        scenario = scenario_for(index, config)
        plan = plan_for(seed, scenario)
        outcome = _run_seed(seed, scenario, plan, config)
        report.seeds += 1
        report.jobs += outcome.jobs
        report.admitted += outcome.admitted
        report.rejected_submissions += outcome.rejected
        report.scenarios[scenario] = report.scenarios.get(scenario, 0) + 1
        for status, count in outcome.settled.items():
            report.settled[status] = report.settled.get(status, 0) + count
        for point, count in outcome.fired.items():
            if count:
                report.faults_fired[point] = (
                    report.faults_fired.get(point, 0) + count
                )
        if outcome.violations:
            first = outcome.violations[0]
            if config.shrink and plan.rules:
                shrunk = _shrink_plan(
                    seed, scenario, plan, first.invariant, config
                )
                for entry in outcome.violations:
                    entry.plan = shrunk.to_dict()
            report.violations.extend(outcome.violations)
            for entry in outcome.violations:
                say(f"VIOLATION {entry.describe()}")
        else:
            fired = sum(outcome.fired.values())
            say(
                f"seed {seed} [{scenario}] {outcome.jobs} job(s), "
                f"{fired} fault(s) fired: ok"
            )
    report.wall_seconds = time.perf_counter() - began
    return report


def main(argv: list[str] | None = None) -> int:
    """Console entry point: ``hrms-chaos``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="hrms-chaos",
        description="Seeded fault-injection campaign against the "
        "scheduling service: inject store/executor/worker/HTTP faults "
        "and audit the resilience invariants (no job lost or stuck, no "
        "corrupt or degraded artifact served as canonical, metrics "
        "consistent with the injected faults).",
    )
    parser.add_argument(
        "--seeds", type=int, default=50,
        help="number of seeded scenarios (default: %(default)s)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0,
        help="first seed (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="jobs submitted per seed (default: %(default)s)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall-clock budget; the sweep stops between seeds once "
             "spent (default: seeds only)",
    )
    parser.add_argument(
        "--process-stride", type=int, default=10,
        help="every Nth seed runs the process backend with worker "
             "kills (default: %(default)s; 0 disables)",
    )
    parser.add_argument(
        "--http-stride", type=int, default=7,
        help="every Nth seed runs over a live HTTP server "
             "(default: %(default)s; 0 disables)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without minimizing their fault plans",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds wants a positive count, got {args.seeds}")
    if args.jobs < 1:
        parser.error(f"--jobs wants a positive count, got {args.jobs}")

    config = ChaosConfig(
        seeds=args.seeds,
        seed_base=args.seed_base,
        jobs_per_seed=args.jobs,
        process_stride=max(0, args.process_stride),
        http_stride=max(0, args.http_stride),
        max_seconds=args.seconds,
        shrink=not args.no_shrink,
    )
    try:
        report = run_chaos(
            config, log=lambda message: print(f"hrms-chaos: {message}")
        )
    except ReproError as exc:
        print(f"hrms-chaos: {exc}", file=sys.stderr)
        return 1
    print(f"hrms-chaos: {report.summary()}")
    for entry in report.violations:
        print(f"hrms-chaos: VIOLATION {entry.describe()}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
