"""Execute service jobs: resolve inputs, consult the store, schedule.

Two job kinds exist today:

* ``"schedule"`` — one loop (a serialized DDG *or* loop-language
  source), one machine, one scheduler.  The artifact is the complete
  schedule: the II, the normalised start map, MaxLive and the MII
  bookkeeping — everything needed to rebuild a
  :class:`~repro.schedule.schedule.Schedule` without re-running the
  scheduler.  Naming the virtual ``"portfolio"`` scheduler races the
  registered methods (:mod:`repro.portfolio`) instead: member schedules
  are cached under their own individual keys, and the portfolio
  artifact carries the decision record plus the winning schedule.
* ``"suite"`` — a named workload population scheduled with several
  methods through :func:`repro.experiments.stats.run_study`, serially
  inside the worker that owns the job, with per-loop rows shared
  through :func:`~repro.service.store.persistent_study_cache`.  The
  artifact is the study-row table.

The cache key of an artifact is the canonical request — graph
fingerprint digest × machine wire dict × scheduler × options — so a
request is computed at most once per store, across restarts.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro import cancel
from repro.engine.mindist import fingerprint_digest
from repro.engine.session import SessionCache
from repro.errors import GraphError, JobError
from repro.graph.ddg import DependenceGraph
from repro.graph.serialization import graph_from_dict
from repro.machine.configs import (
    govindarajan_machine,
    machine_from_config,
    perfect_club_machine,
)
from repro.machine.machine import MachineModel
from repro.obs import trace
from repro.schedule.maxlive import max_live
from repro.schedule.schedule import Schedule, ScheduleStats
from repro.schedulers import registry
from repro.schedulers.registry import make_scheduler
from repro.service import faults
from repro.service.jobs import Job
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import CircuitBreaker
from repro.service.store import ArtifactStore, persistent_study_cache

#: Request schema version embedded in every cache key.
REQUEST_SCHEMA = 1

#: Machine used when a request does not name one.
DEFAULT_MACHINE = "perfect-club"

#: Scheduler used when a request does not name one.
DEFAULT_SCHEDULER = "hrms"

#: The single cheap heuristic a degraded portfolio request falls back
#: to (the paper's own method — milliseconds, no MILP).
DEGRADED_SCHEDULER = "hrms"


def schedule_payload(
    schedule: Schedule,
    maxlive: int | None = None,
    digest: str | None = None,
) -> dict[str, Any]:
    """The JSON artifact for a computed schedule.

    ``digest`` is the graph's fingerprint when the caller already holds
    it (the executor's cache keys do); otherwise it is computed here.
    """
    stats = schedule.stats
    return {
        "graph": {
            "name": schedule.graph.name,
            "digest": (
                digest
                if digest is not None
                else fingerprint_digest(schedule.graph)
            ),
            "operations": len(schedule.graph),
        },
        "machine": schedule.machine.to_dict(),
        "scheduler": stats.scheduler,
        "ii": schedule.ii,
        "stage_count": schedule.stage_count,
        "length": schedule.length,
        "start": dict(schedule.start),
        "maxlive": maxlive if maxlive is not None else max_live(schedule),
        "mii": stats.mii,
        "resmii": stats.resmii,
        "recmii": stats.recmii,
        "attempts": stats.attempts,
        "seconds": stats.total_seconds,
    }


def schedule_from_payload(
    payload: dict,
    graph: DependenceGraph,
    machine: MachineModel | None = None,
    digest: str | None = None,
) -> Schedule:
    """Rebuild a :class:`Schedule` from a stored artifact payload.

    The caller supplies the graph (artifacts carry only its digest) and,
    when it holds it already, the graph's fingerprint as ``digest``; a
    digest mismatch is rejected rather than silently producing a
    schedule for the wrong loop.
    """
    expected = payload.get("graph", {}).get("digest")
    if expected is not None and expected != (
        digest if digest is not None else fingerprint_digest(graph)
    ):
        raise JobError(
            f"artifact was computed for graph digest {expected[:12]}…, "
            f"not for {graph.name!r}"
        )
    machine = machine or MachineModel.from_dict(payload["machine"])
    stats = ScheduleStats(
        scheduler=payload.get("scheduler", ""),
        mii=payload.get("mii", 0),
        resmii=payload.get("resmii", 0),
        recmii=payload.get("recmii", 0),
        attempts=payload.get("attempts", 0),
        total_seconds=payload.get("seconds", 0.0),
    )
    return Schedule(
        graph,
        machine,
        ii=int(payload["ii"]),
        start={name: int(c) for name, c in payload["start"].items()},
        stats=stats,
    )


def result_from_envelope(key: str, envelope: dict, cached: bool) -> dict:
    """The job result for the artifact *envelope* stored under *key*.

    The one result builder, for worker and admission answers alike, so
    one artifact always yields one result; only *cached* differs.
    """
    request, payload = envelope["request"], envelope["payload"]
    result = {"kind": "schedule", "artifact": key, "cached": cached}
    if envelope["kind"] == "suite":
        result.update(
            kind="suite",
            suite=request["suite"],
            loops=len(payload["loops"]),
            schedulers=list(request["schedulers"]),
        )
        return result
    portfolio = envelope["kind"] == "portfolio"
    schedule = payload["schedule"] if portfolio else payload
    result.update(
        graph=schedule["graph"]["name"], scheduler=request["scheduler"]
    )
    if portfolio:
        result.update(
            winner=payload["winner"],
            policy=payload["policy"],
            members=[
                {name: member[name] for name in ("name", "status", "source")}
                for member in payload["members"]
            ],
        )
    for name in ("ii", "mii", "maxlive"):
        result[name] = schedule[name]
    return result


class SchedulingExecutor:
    """Resolve job requests and run them against the artifact store."""

    def __init__(
        self,
        store: ArtifactStore,
        metrics: ServiceMetrics | None = None,
        events: object | None = None,
    ) -> None:
        self.store = store
        self.metrics = metrics or ServiceMetrics()
        #: Optional :class:`repro.obs.events.EventLog` for decision events.
        self.events = events
        self._study_cache = persistent_study_cache(store)
        #: Live scheduling sessions keyed by (graph digest, machine).
        #: Requests for the same loop × machine — batch members, racing
        #: portfolio schedulers, resubmits — share one MII analysis and
        #: one MinDist memo through here.
        self.sessions = SessionCache()
        #: Guards the portfolio race: repeated member failures trip it
        #: open and portfolio requests degrade to DEGRADED_SCHEDULER.
        self.breaker = CircuitBreaker()
        #: Optional queue-saturation probe installed by the service
        #: (``>= 1.0`` means overloaded → degrade portfolio races).
        self.load_factor: Callable[[], float] | None = None

    # ------------------------------------------------------------------
    def execute(self, job: Job) -> dict:
        """Entry point the worker pool calls."""
        return self.execute_request(job.kind, job.request)

    def execute_request(self, kind: str, request: dict) -> dict:
        """Execute one request dict (the wire form of a job)."""
        if kind == "schedule":
            return self._schedule(request)
        if kind == "suite":
            return self._suite(request)
        raise JobError(f"unknown job kind {kind!r}")

    # ------------------------------------------------------------------
    def _resolve_graph(self, request: dict) -> DependenceGraph:
        if "graph" in request:
            return graph_from_dict(request["graph"])
        if "source" in request:
            from repro.frontend.pipeline import compile_source, profile_by_name

            graph = compile_source(
                str(request["source"]),
                name=str(request.get("name", "loop")),
                profile=profile_by_name(request.get("profile")),
            ).graph
            if not len(graph):
                raise GraphError(
                    "source compiled to a graph with no operations"
                )
            return graph
        raise JobError(
            "a schedule request needs either 'graph' (serialized DDG) "
            "or 'source' (loop-language text)"
        )

    @staticmethod
    def _options(request: dict) -> dict:
        options: dict[str, Any] = {}
        if request.get("max_ii") is not None:
            options["max_ii"] = int(request["max_ii"])
        return options

    @staticmethod
    def _schedule_cache_request(
        digest: str,
        machine: MachineModel,
        scheduler: str,
        options: dict,
    ) -> dict:
        """The canonical identity of one schedule request for the graph
        with fingerprint *digest*.

        Portfolio member artifacts are keyed through here too, so a
        member schedule computed during a race is the *same* artifact a
        later individual request for that scheduler hits.
        """
        return {
            "kind": "schedule",
            "schema": REQUEST_SCHEMA,
            "graph": digest,
            "machine": machine.to_dict(),
            "scheduler": scheduler,
            "options": options,
        }

    def _schedule_one(
        self,
        graph: DependenceGraph,
        digest: str,
        machine: MachineModel,
        scheduler: str,
        options: dict,
    ) -> tuple[str, dict, bool]:
        """Get-or-compute one plain schedule artifact.

        Returns ``(key, envelope, cached)``.  The single funnel for both
        direct schedule requests and the degraded-portfolio fallback,
        and the home of the executor's fault-injection hooks."""
        cache_request = self._schedule_cache_request(
            digest, machine, scheduler, options
        )
        key = self.store.key_for(cache_request)
        envelope = self.store.get(key)
        cached = envelope is not None
        if envelope is None:
            if faults.ACTIVE is not None:
                rule = faults.ACTIVE.should_fire("executor.latency")
                if rule is not None:
                    time.sleep(rule.delay_s)
                if faults.ACTIVE.should_fire("executor.error"):
                    raise RuntimeError(
                        "injected transient scheduler fault"
                    )
            # Honour a job deadline before starting a compute (the II
            # search polls it again per attempt).
            cancel.check()
            with trace.span("schedule.compute", scheduler=scheduler):
                session = self.sessions.get(graph, machine, digest=digest)
                schedule = make_scheduler(scheduler, **options).schedule(
                    graph, machine, session.analysis, session=session
                )
            envelope = self.store.put(
                key,
                "schedule",
                cache_request,
                schedule_payload(schedule, digest=digest),
            )
            self.metrics.inc("schedules_computed")
            self.metrics.observe(
                "scheduler_seconds",
                envelope["payload"]["seconds"],
                scheduler=scheduler,
            )
        return key, envelope, cached

    def _schedule(self, request: dict) -> dict:
        graph = self._resolve_graph(request)
        machine = machine_from_config(request.get("machine", DEFAULT_MACHINE))
        scheduler = str(request.get("scheduler", DEFAULT_SCHEDULER))
        options = self._options(request)
        # The one fingerprint of this request: every cache key, session
        # lookup and payload below reuses it.
        digest = fingerprint_digest(graph)
        if scheduler in registry.VIRTUAL_SCHEDULERS:
            return self._portfolio(request, graph, digest, machine, options)

        return result_from_envelope(
            *self._schedule_one(graph, digest, machine, scheduler, options)
        )

    def _degraded_portfolio(
        self,
        graph: DependenceGraph,
        digest: str,
        machine: MachineModel,
        options: dict,
        reason: str,
    ) -> dict:
        """Serve a portfolio request in degraded mode: one cheap
        heuristic instead of the full race.

        The member schedule is cached under its own canonical key (it
        *is* the artifact a direct ``scheduler: "hrms"`` request would
        compute), but **no portfolio envelope is written** — a degraded
        answer must never be served as the canonical portfolio artifact
        once the breaker closes again."""
        self.metrics.inc("portfolios_degraded")
        if self.events is not None:
            self.events.emit(
                "portfolio.degraded",
                graph=graph.name,
                reason=reason,
                fallback=DEGRADED_SCHEDULER,
            )
        result = result_from_envelope(
            *self._schedule_one(
                graph, digest, machine, DEGRADED_SCHEDULER, options
            )
        )
        return {
            **result,
            "degraded": True,
            "degrade_reason": reason,
            "scheduler": "portfolio",
            "winner": DEGRADED_SCHEDULER,
            "policy": None,
            "members": [
                {
                    "name": DEGRADED_SCHEDULER,
                    "status": "ok",
                    "source": "degraded",
                }
            ],
        }

    # ------------------------------------------------------------------
    def _portfolio(
        self,
        request: dict,
        graph: DependenceGraph,
        digest: str,
        machine: MachineModel,
        options: dict,
    ) -> dict:
        """Race the scheduler portfolio for one loop.

        Member schedules are cached under their *own* individual request
        keys (a later ``scheduler: "hrms"`` request is a store hit, and
        a member already scheduled individually is not re-raced); the
        portfolio request itself caches the decision record plus the
        winning schedule, so a resubmit is a single store read.
        """
        from repro.portfolio import (
            DEFAULT_MEMBER_BUDGET,
            race_portfolio,
            resolve_members,
        )

        try:
            policy = request.get("policy")
            include_exact = bool(request.get("include_exact", False))
            member_budget = float(
                request.get("member_budget", DEFAULT_MEMBER_BUDGET)
            )
            register_budget = (
                int(request["register_budget"])
                if request.get("register_budget") is not None
                else None
            )
            members = resolve_members(
                request.get("members"), include_exact=include_exact
            )
        except (TypeError, ValueError) as exc:
            raise JobError(f"bad portfolio request: {exc}") from exc

        from repro.portfolio.policies import make_policy

        policy_name = make_policy(policy).name
        # Canonical policy spec for the cache key: a parameterless dict
        # collapses onto the bare name, so {"name": "lexicographic"} and
        # "lexicographic" land on the same artifact.
        if isinstance(policy, dict):
            params = {k: v for k, v in policy.items() if k != "name"}
            policy_spec: Any = (
                {"name": policy_name, **params} if params else policy_name
            )
        else:
            policy_spec = policy_name
        cache_request = self._schedule_cache_request(
            digest,
            machine,
            "portfolio",
            {
                **options,
                "policy": policy_spec,
                "members": list(members),
                "include_exact": include_exact,
                "member_budget": member_budget,
                "register_budget": register_budget,
            },
        )
        key = self.store.key_for(cache_request)
        envelope = self.store.get(key)
        cached = envelope is not None
        if envelope is None:
            # Graceful degradation: under a tripped breaker (repeated
            # member failures) or queue overload, skip the race and
            # serve the single cheap heuristic instead.
            reason = None
            if not self.breaker.allow():
                reason = "breaker-open"
            elif (
                self.load_factor is not None and self.load_factor() >= 1.0
            ):
                reason = "overload"
            if reason is not None:
                return self._degraded_portfolio(
                    graph, digest, machine, options, reason
                )
            # Exact members race under the member budget as their MILP
            # time limit; that option is part of their request identity,
            # so a budget-limited result never masquerades as the
            # artifact an unlimited direct request would compute.
            member_requests = {
                name: self._schedule_cache_request(
                    digest,
                    machine,
                    name,
                    {**options, "time_limit": member_budget}
                    if name in registry.EXACT_SCHEDULERS
                    else options,
                )
                for name in members
            }
            precomputed: dict[str, Schedule] = {}
            for name, member_request in member_requests.items():
                member_envelope = self.store.get(
                    self.store.key_for(member_request)
                )
                if member_envelope is not None:
                    precomputed[name] = schedule_from_payload(
                        member_envelope["payload"], graph, machine, digest
                    )
            session = self.sessions.get(graph, machine, digest=digest)
            try:
                with trace.span(
                    "portfolio.race",
                    members=list(members),
                    policy=policy_name,
                ):
                    result = race_portfolio(
                        graph,
                        machine,
                        members=members,
                        policy=policy,
                        member_budget=member_budget,
                        include_exact=include_exact,
                        register_budget=register_budget,
                        precomputed=precomputed,
                        session=session,
                        **options,
                    )
            except Exception:
                # A race that produced nothing usable at all is the
                # strongest breaker signal there is (and a half-open
                # probe must always resolve, so every exception counts).
                self.breaker.record_failure()
                raise
            # Feed the breaker member health: every failed member is a
            # failure event, a fully healthy race closes the breaker.
            failed = sum(
                1 for outcome in result.outcomes if outcome.status != "ok"
            )
            if failed:
                for _ in range(failed):
                    self.breaker.record_failure()
            else:
                self.breaker.record_success()
            member_artifacts: dict[str, str] = {}
            for outcome in result.outcomes:
                # Only verified-usable schedules are cached; an
                # "invalid" member (failed verification) must not become
                # a servable individual artifact.
                if outcome.schedule is None or outcome.status != "ok":
                    continue
                member_key = self.store.key_for(member_requests[outcome.name])
                member_artifacts[outcome.name] = member_key
                if outcome.source == "raced":
                    self.store.put(
                        member_key,
                        "schedule",
                        member_requests[outcome.name],
                        schedule_payload(
                            outcome.schedule,
                            maxlive=outcome.score.maxlive,
                            digest=digest,
                        ),
                    )
                    self.metrics.inc("schedules_computed")
            decision = result.decision_record()
            for member in decision["members"]:
                member["artifact"] = member_artifacts.get(member["name"])
            if self.events is not None:
                self.events.emit(
                    "portfolio.settled",
                    graph=graph.name,
                    winner=decision["winner"],
                    policy=decision["policy"],
                    members=[
                        {
                            "name": member["name"],
                            "status": member["status"],
                            "ii": (member.get("score") or {}).get("ii"),
                            "maxlive": (member.get("score") or {}).get(
                                "maxlive"
                            ),
                        }
                        for member in decision["members"]
                    ],
                )
            payload = {
                **decision,
                "schedule": schedule_payload(
                    result.schedule,
                    maxlive=result.winner_score.maxlive,
                    digest=digest,
                ),
            }
            envelope = self.store.put(key, "portfolio", cache_request, payload)
            self.metrics.inc("portfolios_computed")
        return result_from_envelope(key, envelope, cached)

    # ------------------------------------------------------------------
    def _suite(self, request: dict) -> dict:
        from repro.experiments.stats import run_study
        from repro.workloads.govindarajan import govindarajan_suite
        from repro.workloads.perfectclub import perfect_club_suite

        raw_name = str(request.get("suite", ""))
        # Canonicalise aliases *before* the cache key is built, so
        # "perfect_club" and "perfectclub" land on the same artifact.
        name = {
            "perfect-club": "perfectclub",
            "perfect_club": "perfectclub",
        }.get(raw_name, raw_name)
        n_loops = request.get("n_loops")
        if name == "govindarajan":
            loops = govindarajan_suite()
            default_machine = govindarajan_machine()
        elif name == "perfectclub":
            loops = perfect_club_suite(
                n_loops=int(n_loops) if n_loops is not None else 1258
            )
            default_machine = perfect_club_machine()
        else:
            raise JobError(
                f"unknown suite {raw_name!r}; available: "
                "govindarajan, perfectclub"
            )
        if n_loops is not None:
            loops = loops[: int(n_loops)]
        schedulers = tuple(
            str(s)
            for s in request.get(
                "schedulers", registry.DEFAULT_BATCH_SCHEDULERS
            )
        )
        machine = (
            machine_from_config(request["machine"])
            if "machine" in request
            else default_machine
        )

        cache_request = {
            "kind": "suite",
            "schema": REQUEST_SCHEMA,
            "suite": name,
            "n_loops": len(loops),
            "schedulers": list(schedulers),
            "machine": machine.to_dict(),
        }
        key = self.store.key_for(cache_request)
        envelope = self.store.get(key)
        cached = envelope is not None
        if envelope is None:
            with trace.span(
                "suite.run", suite=name, loops=len(loops)
            ):
                study = run_study(
                    loops=loops,
                    schedulers=schedulers,
                    machine=machine,
                    cache=self._study_cache,
                )
            payload = {
                "suite": name,
                "schedulers": list(schedulers),
                "loops": [
                    {
                        "name": record.loop.name,
                        "mii": record.mii,
                        "rows": {
                            sched: {"ii": row.ii, "maxlive": row.maxlive}
                            for sched, row in record.rows.items()
                        },
                    }
                    for record in study.records
                ],
            }
            envelope = self.store.put(key, "suite", cache_request, payload)
            self.metrics.inc("suites_computed")
        return result_from_envelope(key, envelope, cached)
