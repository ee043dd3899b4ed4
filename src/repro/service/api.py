"""The HTTP JSON API over the scheduling service.

Built on :mod:`http.server` (no new dependencies).  Endpoints::

    GET  /healthz               liveness probe (always 200 while the
                                process serves; body carries ready too)
    GET  /readyz                readiness probe: 200 when the pool is
                                running and the queue has headroom,
                                503 {"ready": false, "reason"} otherwise
    GET  /metrics               Prometheus text (queue depth, latency
                                quantiles, store hit rate, counters)
    GET  /v1/schedulers         registry catalog: names + exact/virtual
                                flags, defaults — clients discover
                                schedulers instead of hardcoding them
    POST /v1/jobs               submit one job; body is the request dict
                                (kind defaults to "schedule") → 202 {id}
    POST /v1/batch              {"jobs": [request, …]} → 202 {ids}
    POST /v1/verify             {"artifact": key, "graph": ddg} →
                                re-run the QA oracle battery (verifier,
                                II bounds, simulator replay) on a stored
                                schedule artifact; 200 report
                                with per-oracle checks
    GET  /v1/jobs               {"counts": {...}, "jobs": [summaries]}
    GET  /v1/jobs/<id>          full job record (status, result, error)
    GET  /v1/artifacts/<key>    the stored JSON envelope

A submission whose identical request (same kind, same request body,
control fields aside) already settled done is answered at
**admission**: the service keeps an in-memory *request alias* from the
canonical request hash to the artifact key, reads that artifact once
(integrity-checked) and settles the job ``done`` before the 202 goes
out, so the 202 then carries the job's whole settled record (the body
``GET /v1/jobs/<id>`` would return, ``"status": "done"`` and the
``result`` included) and the job never enters the queue.  Degraded
answers are never aliased, and an artifact that is gone or was
quarantined drops its alias and the job takes the queue path as usual.

Malformed requests are 400s with ``{"error": …}``; unknown ids/keys are
404s; a full (bounded) job queue is a 429 with a ``Retry-After``
header (admission answers never touch the queue, so it sheds only work
that must be computed).  Submissions accept a ``timeout`` control
field (seconds) that becomes the job's deadline — a blown deadline
settles the job in the ``timeout`` status.  The server is a
:class:`~http.server.ThreadingHTTPServer`
(thread per connection) in front of the worker pool, so submissions
return immediately and clients poll ``/v1/jobs/<id>``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.errors import JobError, QueueFullError, ReproError
from repro.obs import trace
from repro.obs.events import EventLog
from repro.schedulers import registry
from repro.service import faults
from repro.service.executor import (
    DEFAULT_SCHEDULER,
    SchedulingExecutor,
    result_from_envelope,
)
from repro.service.jobs import Job, JobQueue, JobStatus
from repro.service.metrics import ServiceMetrics
from repro.service.procpool import ExecutorConfig, make_worker_pool
from repro.service.resilience import CircuitBreaker
from repro.service.store import ArtifactStore, request_key

#: Job kinds the API accepts.
JOB_KINDS = ("schedule", "suite")

#: Per-request fields that configure the job rather than the work.
_CONTROL_FIELDS = ("kind", "priority", "max_attempts", "timeout")

#: Seconds a 429 response tells the client to back off before retrying.
RETRY_AFTER_S = 1

#: Request aliases (request hash -> artifact key) kept in memory, oldest
#: evicted first.  An evicted request is served by a worker again (a
#: store hit there), so the bound costs latency, never correctness.
REQUEST_ALIASES_KEPT = 10_000


class SchedulingService:
    """Store + queue + workers + metrics behind one façade.

    This object is the API the HTTP layer (and in-process callers, e.g.
    the tests and the perf smoke tier) talk to; it owns no sockets.
    """

    #: Settled (done/failed) jobs kept for polling before eviction.  The
    #: artifacts themselves live in the store forever; this only bounds
    #: the in-memory job records a long-running server accumulates.
    FINISHED_JOBS_KEPT = 10_000

    def __init__(
        self,
        store: ArtifactStore | str | Path,
        *,
        workers: int | None = None,
        max_attempts: int = 2,
        finished_jobs_kept: int | None = None,
        backend: str = "thread",
        config: ExecutorConfig | None = None,
    ) -> None:
        self.store = (
            store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        )
        # An explicit ExecutorConfig wins; the loose kwargs exist for
        # callers (and older code) that only care about one knob.
        self.config = config or ExecutorConfig(
            backend=backend, workers=workers, max_attempts=max_attempts
        )
        self.metrics = ServiceMetrics()
        #: Append-only audit journal beside the artifacts.
        self.events = EventLog(self.store.root / "events.jsonl")
        self.store.events = self.events
        self.executor = SchedulingExecutor(
            self.store, self.metrics, events=self.events
        )
        self.executor.breaker.on_transition = (
            lambda old, new: self.events.emit(
                "breaker.transition", old=old, new=new
            )
        )
        #: Where ``GET /v1/traces/<id>`` reads from (the process-wide
        #: collector, so traces survive a service stop); ``None`` only
        #: when tracing is configured off.
        self.tracer = trace.COLLECTOR if self.config.tracing else None
        self._tracing_armed = False
        self.queue = JobQueue(max_depth=self.config.max_queue_depth)
        # The executor degrades portfolio races when the queue is at
        # (or past) its depth cap — saturation is the overload signal.
        if self.config.max_queue_depth is not None:
            cap = self.config.max_queue_depth
            self.executor.load_factor = lambda: self.queue.depth / cap
        self.max_attempts = self.config.max_attempts
        self.finished_jobs_kept = (
            finished_jobs_kept
            if finished_jobs_kept is not None
            else self.FINISHED_JOBS_KEPT
        )
        self._jobs: dict[str, Job] = {}
        self._finished_order: deque[str] = deque()
        self._jobs_lock = threading.Lock()
        #: The request alias: ``Job.alias`` of a request that settled
        #: done (not degraded) -> its artifact key.
        self._aliases: OrderedDict[str, str] = OrderedDict()
        self._aliases_lock = threading.Lock()
        self.pool = make_worker_pool(
            self.queue,
            config=self.config,
            execute=self.executor.execute,
            store=self.store,
            metrics=self.metrics,
            on_finish=self._finished,
            events=self.events,
        )

    # ------------------------------------------------------------------
    def start(self) -> "SchedulingService":
        """Start the worker pool; returns ``self`` for chaining."""
        if self.config.tracing and not self._tracing_armed:
            self.tracer = trace.arm()
            self._tracing_armed = True
        self.pool.start()
        return self

    def stop(self, wait: bool = True, abort: bool = False) -> None:
        """Close the queue and (optionally) wait for the workers.

        ``abort=True`` settles queued jobs as failed instead of running
        them and bounds how long in-flight work may delay shutdown —
        the Ctrl-C/SIGTERM path of ``hrms-serve``.
        """
        self.pool.stop(wait=wait, abort=abort)
        if self._tracing_armed:
            trace.disarm()
            self._tracing_armed = False
        self.events.close()

    # ------------------------------------------------------------------
    def _build_job(self, body: dict) -> Job:
        """Validate *body* and build (but not enqueue) a job; raises
        :class:`JobError` on malformed submissions (the HTTP layer maps
        that to a 400)."""
        if not isinstance(body, dict):
            raise JobError("a job submission must be a JSON object")
        kind = str(body.get("kind", "schedule"))
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r}; available: {', '.join(JOB_KINDS)}"
            )
        request = {
            key: value
            for key, value in body.items()
            if key not in _CONTROL_FIELDS
        }
        if kind == "schedule" and "graph" not in request and "source" not in request:
            raise JobError(
                "a schedule request needs either 'graph' (serialized DDG) "
                "or 'source' (loop-language text)"
            )
        try:
            priority = int(body.get("priority", 0))
            max_attempts = int(body.get("max_attempts", self.max_attempts))
            timeout = (
                float(body["timeout"])
                if body.get("timeout") is not None
                else None
            )
        except (TypeError, ValueError) as exc:
            raise JobError(f"bad control field: {exc}") from exc
        if timeout is not None and timeout <= 0:
            raise JobError(f"timeout must be > 0 seconds, got {timeout}")
        return Job(
            kind=kind,
            request=request,
            priority=priority,
            max_attempts=max(1, max_attempts),
            deadline=None if timeout is None else time.time() + timeout,
        )

    def _begin_trace(self, job: Job, trace_id: str | None = None) -> None:
        """Mint (or adopt) a trace id and open the root span for *job*."""
        if trace.ACTIVE is None:
            return
        job.trace_id = str(trace_id) if trace_id else trace.new_trace_id()
        job.trace_root = trace.begin_root(
            "request",
            job.trace_id,
            {
                "job": job.id,
                "kind": job.kind,
                "scheduler": str(
                    job.request.get("scheduler", DEFAULT_SCHEDULER)
                ),
            },
        )

    def _job_event_fields(self, job: Job) -> dict:
        fields: dict = {"job": job.id, "kind": job.kind}
        if job.trace_id is not None:
            fields["trace_id"] = job.trace_id
        return fields

    def _register(self, job: Job) -> None:
        with self._jobs_lock:
            self._jobs[job.id] = job
        self.metrics.inc("jobs_submitted")
        self.events.emit(
            "job.submitted",
            priority=job.priority,
            **self._job_event_fields(job),
        )

    def _accept(self, job: Job) -> Job:
        """Settle *job* at admission, or enqueue it for a worker."""
        if self._admit(job):
            self._register(job)
            self._finished(job)
            return job
        try:
            self.queue.push(job)
        except QueueFullError:
            self.metrics.inc("jobs_rejected")
            if job.trace_root is not None:
                trace.finish(job.trace_root, status="rejected")
                job.trace_root = None
            self.events.emit("job.rejected", **self._job_event_fields(job))
            raise
        self._register(job)
        return job

    def _admit(self, job: Job) -> bool:
        """Answer *job* from the store when its request is aliased.

        Stamps ``job.alias``.  On an alias hit whose artifact still
        reads back intact, the job is filled in as a settled ``done``
        store hit and ``True`` comes back; the caller registers and
        settles it.  ``False`` (no alias, a stopped service, an artifact
        gone or quarantined — whose alias is dropped) means the queue.
        """
        job.alias = request_key({"kind": job.kind, "request": job.request})
        with self._aliases_lock:
            key = self._aliases.get(job.alias)
        if key is None or self.queue.closed:
            return False
        began = time.time()
        if job.trace_root is not None:
            with trace.attach(job.trace_id, job.trace_root.span_id):
                with trace.span("admission", artifact=key[:12]):
                    envelope = self.store.get(key)
        else:
            envelope = self.store.get(key)
        if envelope is None:
            with self._aliases_lock:
                if self._aliases.get(job.alias) == key:
                    del self._aliases[job.alias]
            return False
        job.result = result_from_envelope(key, envelope, cached=True)
        job.started_at = began
        job.attempts = 1
        job.admitted = True
        job.finished_at = time.time()
        job.status = JobStatus.DONE
        self.metrics.inc("jobs_admitted")
        return True

    def _remember(self, alias: str, key: str) -> None:
        """Alias *alias* to artifact *key*, evicting past the bound."""
        with self._aliases_lock:
            self._aliases[alias] = key
            self._aliases.move_to_end(alias)
            while len(self._aliases) > REQUEST_ALIASES_KEPT:
                self._aliases.popitem(last=False)

    def submit(self, body: dict, trace_id: str | None = None) -> Job:
        """Validate *body* and accept a job: settled at admission when
        its request is aliased, enqueued otherwise.

        *trace_id* adopts a caller-supplied trace (the
        ``X-Hrms-Trace-Id`` header); otherwise a fresh one is minted
        when tracing is armed.
        """
        job = self._build_job(body)
        self._begin_trace(job, trace_id)
        return self._accept(job)

    def submit_batch(self, bodies: list[dict]) -> list[Job]:
        """Submit a suite of jobs in order; all-or-nothing validation.

        Every entry is fully validated (including control fields) before
        the first is enqueued, so a bad entry mid-list rejects the whole
        batch without running anything.
        """
        if not isinstance(bodies, list) or not bodies:
            raise JobError("'jobs' must be a non-empty list of requests")
        jobs = [self._build_job(body) for body in bodies]
        for job in jobs:
            self._begin_trace(job)
        return [self._accept(job) for job in jobs]

    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job | None:
        """The job record for *job_id*, or ``None`` if unknown/evicted."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self, status: str | None = None) -> list[Job]:
        """Every known job record, optionally filtered by status."""
        with self._jobs_lock:
            everything = list(self._jobs.values())
        if status is None:
            return everything
        return [job for job in everything if job.status == status]

    def artifact(self, key: str) -> dict | None:
        """The stored envelope for *key* (a store read)."""
        return self.store.get(key)

    def verify_artifact(self, body: dict) -> dict | None:
        """Re-verify a stored schedule artifact against the QA oracle
        battery (``POST /v1/verify``).

        *body* carries ``artifact`` (a store key) and ``graph`` (the
        serialized DDG the artifact was computed for — artifacts store
        only the graph's digest, so the caller supplies the structure
        and the digest check rejects mismatches).  Returns ``None``
        for an unknown key (the HTTP layer's 404); raises
        :class:`~repro.errors.JobError` on malformed requests or
        non-schedule artifacts.
        """
        if not isinstance(body, dict):
            raise JobError("a verify request must be a JSON object")
        key = body.get("artifact")
        if not key:
            raise JobError(
                "a verify request needs 'artifact' (a stored artifact key)"
            )
        envelope = self.store.get(str(key))
        if envelope is None:
            return None
        if "graph" not in body:
            raise JobError(
                "a verify request needs 'graph' (the serialized DDG the "
                "artifact was computed for; artifacts only store its "
                "digest)"
            )
        from repro.graph.serialization import graph_from_dict
        from repro.qa.oracles import verify_artifact_payload

        kind = envelope.get("kind")
        if kind == "portfolio":
            payload = envelope["payload"]["schedule"]
        elif kind == "schedule":
            payload = envelope["payload"]
        else:
            raise JobError(
                f"artifact {key!r} has kind {kind!r}; only schedule and "
                "portfolio artifacts can be re-verified"
            )
        graph = graph_from_dict(body["graph"])
        report = verify_artifact_payload(payload, graph)
        report["artifact"] = str(key)
        report["artifact_kind"] = kind
        self.metrics.inc("artifacts_verified")
        return report

    # ------------------------------------------------------------------
    def _finished(self, job: Job) -> None:
        # Bound the in-memory registry: settled jobs are evicted oldest
        # first once the retention window is full (queued/running jobs
        # are never touched — they only enter this path when they settle).
        # Evict before counting the job, so a reader that sees the new
        # settled count also sees the registry without the evicted jobs.
        with self._jobs_lock:
            self._finished_order.append(job.id)
            while len(self._finished_order) > self.finished_jobs_kept:
                evicted = self._finished_order.popleft()
                self._jobs.pop(evicted, None)
        degraded = bool(job.result is not None and job.result.get("degraded"))
        if job.status == JobStatus.DONE:
            self.metrics.inc("jobs_done")
            artifact = (job.result or {}).get("artifact")
            # A degraded answer is never canonical: never alias it.
            if job.alias is not None and artifact and not degraded:
                self._remember(job.alias, artifact)
        elif job.status == JobStatus.TIMEOUT:
            self.metrics.inc("jobs_timeout")
        else:
            self.metrics.inc("jobs_failed")
        if degraded:
            self.metrics.inc("jobs_degraded")
        if job.attempts > 1:
            self.metrics.inc("jobs_retried", job.attempts - 1)
        if job.latency is not None:
            self.metrics.observe_latency(job.latency)
        # Per-phase latency families for /metrics.
        if job.started_at is not None:
            self.metrics.observe(
                "phase_seconds",
                max(0.0, job.started_at - job.submitted_at),
                phase="queue",
            )
            if job.finished_at is not None:
                self.metrics.observe(
                    "phase_seconds",
                    max(0.0, job.finished_at - job.started_at),
                    phase="execute",
                )
        if job.trace_root is not None:
            trace.finish(
                job.trace_root, status=job.status, attempts=job.attempts
            )
            job.trace_root = None
        settled = self._job_event_fields(job)
        settled.update(
            status=job.status,
            attempts=job.attempts,
            degraded=degraded,
            scheduler=str(job.request.get("scheduler", DEFAULT_SCHEDULER)),
        )
        if job.request.get("profile") is not None:
            settled["profile"] = str(job.request["profile"])
        if job.admitted:
            settled["admitted"] = True
        if job.latency is not None:
            settled["latency"] = round(job.latency, 6)
        if job.error is not None:
            settled["error"] = job.error.get("type")
        self.events.emit("job.settled", **settled)
        if degraded:
            self.events.emit(
                "job.degraded",
                reason=(job.result or {}).get("degrade_reason"),
                **self._job_event_fields(job),
            )

    def stats(
        self,
        group_by: list[str] | None = None,
        measures: list[str] | None = None,
    ) -> dict:
        """The ``GET /v1/stats`` body: the semantic model queried over
        this service's artifact store and event journal."""
        from repro.obs.stats import StatsModel

        model = StatsModel(self.store, events_path=self.events.path)
        return model.query(group_by=group_by, measures=measures)

    def trace_spans(self, trace_id: str) -> list[dict] | None:
        """Finished spans of *trace_id* (``GET /v1/traces/<id>``), or
        ``None`` when unknown or tracing is configured off."""
        if self.tracer is None:
            return None
        return self.tracer.trace(trace_id)

    def readiness(self) -> tuple[bool, str]:
        """``(ready, reason)`` for the ``/readyz`` probe.

        Ready means: the worker pool is running and a bounded queue
        still has headroom.  Liveness (``/healthz``) stays 200 in
        either case — an unready server is alive, just shedding."""
        if not self.pool.started:
            return False, "worker pool is not running"
        cap = self.queue.max_depth
        if cap is not None and self.queue.depth >= cap:
            return False, f"queue is full ({cap} waiting)"
        return True, "ok"

    #: Breaker states as a numeric gauge (Prometheus has no strings).
    _BREAKER_GAUGE = {
        CircuitBreaker.CLOSED: 0,
        CircuitBreaker.HALF_OPEN: 1,
        CircuitBreaker.OPEN: 2,
    }

    def metrics_text(self) -> str:
        """The Prometheus exposition text ``GET /metrics`` serves."""
        stats = self.store.stats()
        gauges = {
            "queue_depth": self.queue.depth,
            "store_hits": stats.hits,
            "store_misses": stats.misses,
            "store_writes": stats.writes,
            "store_hit_rate": stats.hit_rate,
            "store_quarantined": stats.quarantined,
            "breaker_state": self._BREAKER_GAUGE[self.executor.breaker.state],
            "breaker_trips": self.executor.breaker.trips,
        }
        if faults.ACTIVE is not None:
            gauges["faults_injected"] = faults.ACTIVE.total_fired
        return self.metrics.render_prometheus(gauges=gauges)


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto a :class:`SchedulingService`."""

    server_version = "hrms-service/1"
    protocol_version = "HTTP/1.1"
    # Buffer the response writer so headers and body leave in one send
    # (``handle_one_request`` flushes after each request).  Unbuffered,
    # they go out as two segments and a keep-alive client stalls every
    # response on Nagle's algorithm plus delayed ACK (~40 ms).
    wbufsize = -1
    service: SchedulingService  # injected by make_server

    # Silence the default stderr-per-request logging; with
    # ``--access-log`` each request lands in the structured event
    # journal instead (log_request fires from send_response).
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def log_request(self, code: object = "-", size: object = "-") -> None:
        service = getattr(self, "service", None)
        if service is None or not service.config.access_log:
            return
        try:
            status = int(code)  # HTTPStatus is an IntEnum
        except (TypeError, ValueError):
            status = str(code)
        service.events.emit(
            "http.access",
            method=self.command,
            path=self.path,
            code=status,
            client=self.client_address[0],
        )

    # -- helpers -------------------------------------------------------
    def _reply(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _json(
        self,
        code: int,
        payload: dict,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._reply(
            code,
            json.dumps(payload).encode("utf-8"),
            "application/json; charset=utf-8",
            headers=headers,
        )

    def _error(
        self,
        code: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        if code >= 500:
            service = getattr(self, "service", None)
            if service is not None:
                service.metrics.inc("http_errors")
        self._json(code, {"error": message}, headers=headers)

    def _handler_error(self, exc: BaseException) -> None:
        """A handler blew up: journal it and answer 500 (best effort —
        the connection may already be half-written)."""
        service = getattr(self, "service", None)
        if service is not None:
            service.events.emit(
                "http.error",
                method=getattr(self, "command", "?"),
                path=getattr(self, "path", "?"),
                error=type(exc).__name__,
                message=str(exc),
            )
        try:
            # _error counts the 5xx before writing, so the counter is
            # right even when the reply channel is already broken.
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")
        except Exception:  # noqa: BLE001 - reply channel already broken
            pass

    def _injected_fault(self) -> bool:
        """Apply armed api.* faults; ``True`` when a 500 was served."""
        if faults.ACTIVE is None:
            return False
        rule = faults.ACTIVE.should_fire("api.latency")
        if rule is not None:
            time.sleep(rule.delay_s)
        if faults.ACTIVE.should_fire("api.error"):
            self._error(500, "injected handler fault")
            return True
        return False

    def _read_body(self) -> dict | list:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise JobError(f"bad Content-Length header: {exc}") from exc
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobError("request body is empty")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobError(f"request body is not valid JSON: {exc}") from exc

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if self._injected_fault():
                return
            if url.path == "/healthz":
                # Liveness: always 200 while the process can answer at
                # all; readiness rides along in the body for humans.
                ready, reason = self.service.readiness()
                self._json(
                    200,
                    {
                        "ok": True,
                        "live": True,
                        "ready": ready,
                        "reason": reason,
                        "backend": self.service.config.backend,
                    },
                )
            elif url.path == "/readyz":
                ready, reason = self.service.readiness()
                self._json(
                    200 if ready else 503,
                    {"ready": ready, "reason": reason},
                )
            elif url.path == "/metrics":
                self._reply(
                    200,
                    self.service.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts == ["v1", "schedulers"]:
                self._json(
                    200,
                    {
                        "schedulers": registry.scheduler_catalog(),
                        "default": DEFAULT_SCHEDULER,
                        "batch_default": list(
                            registry.DEFAULT_BATCH_SCHEDULERS
                        ),
                    },
                )
            elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
                job = self.service.job(parts[2])
                if job is None:
                    self._error(404, f"no such job {parts[2]!r}")
                else:
                    self._json(200, job.to_dict())
            elif parts == ["v1", "jobs"]:
                query = parse_qs(url.query)
                status = query.get("status", [None])[0]
                if status is not None and status not in JobStatus.ALL:
                    self._error(400, f"unknown status {status!r}")
                    return
                jobs = self.service.jobs(status)
                counts: dict[str, int] = {}
                for job in self.service.jobs():
                    counts[job.status] = counts.get(job.status, 0) + 1
                self._json(
                    200,
                    {
                        "counts": counts,
                        "jobs": [
                            {
                                "id": job.id,
                                "kind": job.kind,
                                "status": job.status,
                                "priority": job.priority,
                            }
                            for job in jobs
                        ],
                    },
                )
            elif parts[:2] == ["v1", "artifacts"] and len(parts) == 3:
                envelope = self.service.artifact(parts[2])
                if envelope is None:
                    self._error(404, f"no such artifact {parts[2]!r}")
                else:
                    self._json(200, envelope)
            elif parts == ["v1", "stats"]:
                query = parse_qs(url.query)
                group_by = [
                    name
                    for raw in query.get("group_by", [])
                    for name in raw.split(",")
                    if name
                ]
                measures = [
                    name
                    for raw in query.get("measures", [])
                    for name in raw.split(",")
                    if name
                ]
                self._json(
                    200,
                    self.service.stats(
                        group_by=group_by or None,
                        measures=measures or None,
                    ),
                )
            elif parts[:2] == ["v1", "traces"] and len(parts) == 3:
                spans = self.service.trace_spans(parts[2])
                if not spans:
                    self._error(404, f"no trace {parts[2]!r}")
                else:
                    self._json(
                        200, {"trace_id": parts[2], "spans": spans}
                    )
            else:
                self._error(404, f"no route for GET {url.path}")
        except ReproError as exc:
            self._error(400, str(exc))
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - journal + 500
            self._handler_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        try:
            if self._injected_fault():
                return
            if url.path == "/v1/jobs":
                body = self._read_body()
                if not isinstance(body, dict):
                    raise JobError("a job submission must be a JSON object")
                job = self.service.submit(
                    body, trace_id=self.headers.get("X-Hrms-Trace-Id")
                )
                if job.admitted:
                    # Settled at admission: the 202 is the whole record,
                    # so a client needs no GET /v1/jobs/<id>.
                    payload = job.to_dict()
                else:
                    payload = {"id": job.id, "status": job.status}
                headers = None
                if job.trace_id is not None:
                    payload["trace"] = job.trace_id
                    headers = {"X-Hrms-Trace-Id": job.trace_id}
                self._json(202, payload, headers=headers)
            elif url.path == "/v1/batch":
                body = self._read_body()
                if not isinstance(body, dict):
                    raise JobError("a batch submission must be a JSON object")
                jobs = self.service.submit_batch(body.get("jobs"))
                batch_payload = {
                    "ids": [job.id for job in jobs],
                    "count": len(jobs),
                }
                if any(job.trace_id is not None for job in jobs):
                    batch_payload["traces"] = [
                        job.trace_id for job in jobs
                    ]
                self._json(202, batch_payload)
            elif url.path == "/v1/verify":
                body = self._read_body()
                if not isinstance(body, dict):
                    raise JobError("a verify request must be a JSON object")
                report = self.service.verify_artifact(body)
                if report is None:
                    self._error(
                        404, f"no such artifact {body.get('artifact')!r}"
                    )
                else:
                    self._json(200, report)
            else:
                self._error(404, f"no route for POST {url.path}")
        except QueueFullError as exc:
            # Backpressure: shed the submission with an explicit
            # back-off hint instead of deepening a saturated queue.
            self._error(
                429, str(exc), headers={"Retry-After": str(RETRY_AFTER_S)}
            )
        except ReproError as exc:
            self._error(400, str(exc))
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - journal + 500
            self._handler_error(exc)


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Threading server tuned for bursty clients.

    The stdlib default listen backlog of 5 drops (resets) connections
    when e.g. a batch submitter opens dozens of sockets at once; a
    deeper backlog just queues them for the accept loop.
    """

    request_queue_size = 128
    daemon_threads = True


def make_server(
    service: SchedulingService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """An HTTP server bound to *host:port* (0 = ephemeral) serving
    *service*.  The caller owns ``serve_forever``/``shutdown``."""
    handler = type("Handler", (_ServiceHandler,), {"service": service})
    return _ServiceHTTPServer((host, port), handler)


class ServiceServer:
    """Service + HTTP server + serving thread, as one context manager.

    The tests, the quickstart example and the perf smoke tier all want
    "a live server on localhost, torn down afterwards"::

        with ServiceServer(store_dir) as server:
            client = ServiceClient(server.url)
            ...
    """

    def __init__(
        self,
        store: ArtifactStore | str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        max_attempts: int = 2,
        backend: str = "thread",
        config: ExecutorConfig | None = None,
    ) -> None:
        self.service = SchedulingService(
            store,
            workers=workers,
            max_attempts=max_attempts,
            backend=backend,
            config=config,
        )
        self._host = host
        self._port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("server is not running")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Start the service and the HTTP serving thread (idempotent)."""
        if self._server is not None:
            return self
        self.service.start()
        self._server = make_server(self.service, self._host, self._port)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="hrms-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, abort: bool = False) -> None:
        """Shut down the HTTP server, then the service workers."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.stop(abort=abort)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
