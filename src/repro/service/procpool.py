"""Multi-process execution backend for the scheduling service.

The thread :class:`~repro.service.jobs.WorkerPool` is enough for warm
stores and I/O-heavy traffic, but a *cold* store is pure-Python
CPU-bound scheduling work: the HRMS/SMS/IMS inner loops hold the GIL,
so thread workers cap at ~1 core no matter how many there are.  This
module provides the drop-in process equivalent:

* :class:`ExecutorConfig` — which backend (``"thread"`` or
  ``"process"``), how many workers, retry policy, tracing.  The one
  object ``hrms-serve --backend`` and in-process callers configure.
* a **pickle-safe wire protocol** — a job crosses the process boundary
  as the same canonical ``{"kind", "request"}`` dict the store key is
  hashed from (:func:`job_wire`), and comes back as a result envelope
  (:func:`run_wire_job`) carrying either the executor's result dict or
  a captured error.  Nothing but plain JSON-shaped dicts is pickled.
* **per-process warm caches** — each worker process runs
  :func:`_init_worker` once: it opens its own
  :class:`~repro.service.store.ArtifactStore` on the shared root,
  builds a :class:`~repro.service.executor.SchedulingExecutor` (whose
  scheduling-session cache then lives for the worker's lifetime),
  instantiates the machine-config catalog, and runs
  :func:`repro.engine.warm_start`.
* :class:`ProcessWorkerPool` — same interface, queue discipline, retry
  semantics and ``on_finish`` contract as the thread pool.  Dispatcher
  threads in the parent pop the priority queue and block on the
  process pool, so ordering and job bookkeeping stay in one place
  while the scheduling itself runs GIL-free.  A worker that dies
  mid-job breaks only that attempt: the pool is replaced and the job
  retried as a transient failure.

Workers coordinate *through the store*: concurrent processes computing
the same key write identical bits atomically, so no cross-process cache
coherence protocol is needed — content addressing is the protocol.
"""

from __future__ import annotations

import builtins
import pickle
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.errors as errors_module
from repro import cancel
from repro.errors import JobError, ReproError, ServiceError
from repro.obs import trace
from repro.service import faults
from repro.service.jobs import Job, JobQueue, WorkerPool
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import RetryPolicy

#: Execution backends a service can run on.
BACKENDS = ("thread", "process")

#: Executor counters forwarded from worker processes to the parent's
#: :class:`ServiceMetrics` (via the result envelope, not shared memory).
WIRE_COUNTERS = ("schedules_computed", "portfolios_computed", "suites_computed")


@dataclass(frozen=True)
class ExecutorConfig:
    """How a :class:`~repro.service.api.SchedulingService` executes jobs.

    ``backend`` selects the worker pool: ``"thread"`` (shared-memory,
    best for warm stores and tiny jobs) or ``"process"`` (GIL-free,
    best for cold CPU-bound scheduling).  ``workers=None`` means auto
    (:class:`~repro.service.jobs.WorkerPool`'s core-count default).
    Process workers always pre-warm the engine and machine-config
    caches in their initializer.
    """

    backend: str = "thread"
    workers: int | None = None
    max_attempts: int = 2
    #: Seconds :meth:`WorkerPool.stop` waits for each worker thread.
    join_timeout: float = 10.0
    #: Transient-retry backoff curve (exponential, jittered, capped).
    retry_base_delay: float = 0.05
    retry_max_delay: float = 2.0
    #: Bound on queued jobs (``None`` = unbounded); past it, submissions
    #: are rejected with 429 + Retry-After.
    max_queue_depth: int | None = None
    #: Arm end-to-end tracing (:mod:`repro.obs.trace`) for the service
    #: and, on the process backend, inside every worker process.
    tracing: bool = True
    #: Journal HTTP access lines into the event log (hrms-serve
    #: ``--access-log``).
    access_log: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ServiceError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(BACKENDS)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.join_timeout <= 0:
            raise ServiceError(
                f"join_timeout must be > 0, got {self.join_timeout}"
            )
        if self.retry_base_delay < 0:
            raise ServiceError(
                f"retry_base_delay must be >= 0, got {self.retry_base_delay}"
            )
        if self.retry_max_delay < self.retry_base_delay:
            raise ServiceError(
                f"retry_max_delay {self.retry_max_delay} < retry_base_delay "
                f"{self.retry_base_delay}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )

    def retry_policy(self) -> RetryPolicy:
        """The backoff policy this config describes."""
        return RetryPolicy(
            base_delay=self.retry_base_delay, max_delay=self.retry_max_delay
        )


# ----------------------------------------------------------------------
# Worker-process side.
# ----------------------------------------------------------------------

#: Per-process executor state, built once by :func:`_init_worker`.
_WORKER_EXECUTOR = None
_WORKER_METRICS: ServiceMetrics | None = None


def _init_worker(store_root: str, tracing: bool = False) -> None:
    """Build this worker process's executor and warm its caches.

    Runs exactly once per worker process (the pool initializer).  The
    executor — and with it the scheduling-session cache (shared MII
    analyses and MinDist sweeps), the study cache memo and the machine
    catalog — lives for the whole worker lifetime, so repeated jobs
    over the same graphs hit warm per-process caches.  The engine and
    the machine catalog are warmed before the first job arrives.
    """
    global _WORKER_EXECUTOR, _WORKER_METRICS
    from repro.engine import warm_start
    from repro.machine.configs import canonical_machines
    from repro.service.executor import SchedulingExecutor
    from repro.service.store import ArtifactStore

    _WORKER_METRICS = ServiceMetrics()
    _WORKER_EXECUTOR = SchedulingExecutor(
        ArtifactStore(store_root), _WORKER_METRICS
    )
    if tracing:
        # Worker-side spans collect locally and ride back to the parent
        # in the result envelope (see run_wire_job).
        trace.arm()
    canonical_machines()
    warm_start()


def job_wire(job: Job) -> dict:
    """The pickle-safe wire form of *job*: the canonical ``{"kind",
    "request"}`` envelope its store key is derived from, plus the
    absolute deadline (wall clock, so it crosses the process boundary
    unchanged) when one is set."""
    wire = {"kind": job.kind, "request": job.request}
    if job.deadline is not None:
        wire["deadline"] = job.deadline
    context = trace.wire_context()
    if context is not None:
        wire["trace"] = context
    return wire


def run_wire_job(wire: dict) -> dict:
    """Execute one wire-encoded job inside a worker process.

    Never raises: the result envelope is either ``{"ok": True,
    "result": …, "computed": {counter: delta}}`` or ``{"ok": False,
    "permanent": bool, "error_type": …, "message": …}`` —
    ``permanent`` mirrors the thread pool's rule that
    :class:`~repro.errors.ReproError` is deterministic (no retry) while
    anything else may be transient.  When the wire carries a ``trace``
    context (and this worker armed tracing), the job executes attached
    to it and the worker-side spans ride home on the envelope under
    ``"spans"``.
    """
    context = wire.get("trace")
    if context is None or trace.ACTIVE is None:
        return _run_wire_job(wire)
    trace_id = str(context["id"])
    with trace.attach(trace_id, str(context["parent"])):
        envelope = _run_wire_job(wire)
    spans = trace.COLLECTOR.drain(trace_id)
    if spans:
        envelope["spans"] = spans
    return envelope


def _run_wire_job(wire: dict) -> dict:
    if _WORKER_EXECUTOR is None or _WORKER_METRICS is None:
        return {
            "ok": False,
            "permanent": False,
            "error_type": "RuntimeError",
            "message": "worker process was not initialized",
        }
    before = {name: _WORKER_METRICS.counter(name) for name in WIRE_COUNTERS}
    try:
        with cancel.deadline_scope(wire.get("deadline")):
            result = _WORKER_EXECUTOR.execute_request(
                str(wire["kind"]), dict(wire["request"])
            )
    except ReproError as exc:
        return {
            "ok": False,
            "permanent": True,
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
    except Exception as exc:  # noqa: BLE001 - crosses the process boundary
        return {
            "ok": False,
            "permanent": False,
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
    computed = {
        name: _WORKER_METRICS.counter(name) - before[name]
        for name in WIRE_COUNTERS
        if _WORKER_METRICS.counter(name) - before[name]
    }
    return {"ok": True, "result": result, "computed": computed}


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------

def _rebuild_error(
    error_type: str, message: str, permanent: bool
) -> BaseException:
    """Reconstruct a worker failure with its original type and message.

    Permanent failures come back as the :mod:`repro.errors` class of
    the same name (so ``job.error["type"]`` matches the thread backend
    exactly); transient ones as the named builtin exception.  Unknown
    types degrade to :class:`JobError` / :class:`RuntimeError` with the
    type name folded into the message.
    """
    if permanent:
        cls = getattr(errors_module, error_type, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            exc = cls.__new__(cls)
            Exception.__init__(exc, message)
            return exc
        return JobError(f"{error_type}: {message}")
    cls = getattr(builtins, error_type, None)
    if (
        isinstance(cls, type)
        and issubclass(cls, Exception)
        and not issubclass(cls, ReproError)
    ):
        try:
            return cls(message)
        except TypeError:
            pass
    return RuntimeError(f"{error_type}: {message}")


class ProcessWorkerPool(WorkerPool):
    """A :class:`WorkerPool` whose jobs execute in worker *processes*.

    The parent keeps one dispatcher thread per worker: each pops the
    shared :class:`~repro.service.jobs.JobQueue` and blocks on the
    process pool, so priority order, retry-with-capture and the
    ``on_finish`` callback behave byte-for-byte like the thread pool —
    only the ``execute`` step crosses a process boundary.

    The pool is a :class:`~concurrent.futures.ProcessPoolExecutor`
    deliberately: when a worker process dies mid-job (OOM kill,
    segfault), the in-flight future raises ``BrokenProcessPool``
    instead of blocking forever the way ``multiprocessing.Pool.apply``
    would.  The broken executor is replaced and the failure surfaces
    as a *transient* error, so the standard retry path gets the job a
    fresh pool.  Each new worker runs the warm-cache initializer once
    before its first job.
    """

    #: Seconds between supervision sweeps for silently dead workers.
    SUPERVISE_INTERVAL = 0.5

    def __init__(
        self,
        queue: JobQueue,
        store_root: str | Path,
        *,
        workers: int | None = None,
        on_finish: Callable[[Job], None] | None = None,
        metrics: ServiceMetrics | None = None,
        join_timeout: float = 10.0,
        retry_policy: RetryPolicy | None = None,
        tracing: bool = False,
        events: object | None = None,
    ) -> None:
        super().__init__(
            queue,
            self._proxy,
            workers=workers,
            on_finish=on_finish,
            join_timeout=join_timeout,
            retry_policy=retry_policy,
            events=events,
        )
        self._store_root = str(store_root)
        self._metrics = metrics
        self._tracing = tracing
        self._executor: ProcessPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._stopping = False
        self._supervisor: threading.Thread | None = None
        self._supervise_stop = threading.Event()

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._store_root, self._tracing),
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create the process pool, then the dispatcher threads."""
        if self._threads:
            return
        with self._executor_lock:
            self._stopping = False
            if self._executor is None:
                self._executor = self._make_executor()
        self._supervise_stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="hrms-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        super().start()

    def _supervise(self) -> None:
        """Detect workers that died *between* jobs and respawn the pool.

        A worker that dies mid-job breaks its future immediately
        (``BrokenProcessPool``, handled in :meth:`_proxy`); one that
        dies idle is invisible until the next submit wedges on a broken
        pool.  This sweep notices the corpse early and replaces the
        executor so readiness recovers without traffic."""
        while not self._supervise_stop.wait(self.SUPERVISE_INTERVAL):
            with self._executor_lock:
                executor = self._executor
                if executor is None or self._stopping:
                    continue
                processes = getattr(executor, "_processes", None) or {}
                if not processes or all(
                    process.is_alive() for process in processes.values()
                ):
                    continue
                self._executor = self._make_executor()
            executor.shutdown(wait=False, cancel_futures=True)
            if self._metrics is not None:
                self._metrics.inc("worker_respawns")

    def alive_workers(self) -> int:
        """Live worker processes right now (0 when stopped)."""
        with self._executor_lock:
            executor = self._executor
        if executor is None:
            return 0
        processes = getattr(executor, "_processes", None) or {}
        return sum(1 for process in processes.values() if process.is_alive())

    def kill_one_worker(self) -> bool:
        """SIGKILL one live worker process (chaos/testing hook);
        ``True`` if a victim was found."""
        with self._executor_lock:
            executor = self._executor
        if executor is None:
            return False
        processes = getattr(executor, "_processes", None) or {}
        for process in processes.values():
            if process.is_alive():
                process.kill()
                return True
        return False

    #: Seconds an in-flight job is given to finish during an aborting
    #: stop before its worker process is terminated outright.
    ABORT_GRACE = 5.0

    def stop(
        self, wait: bool = True, abort: bool = False,
        grace: float | None = None,
    ) -> None:
        """Drain the dispatchers, then shut the worker processes down.

        Graceful (default): queued and in-flight jobs complete, the
        executor is shut down, and every worker process is joined.

        ``abort=True`` (the Ctrl-C/SIGTERM path): queued jobs are
        settled as failed without running, in-flight jobs get *grace*
        seconds to finish, and any worker process still alive after
        that is terminated and joined — the pool never orphans a
        worker and never wedges behind a hung job.  An in-flight job
        whose worker was terminated surfaces as a failed job (its
        future breaks, and the closed queue turns the usual transient
        retry into a captured failure).
        """
        self._supervise_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=self.join_timeout)
            self._supervisor = None
        with self._executor_lock:
            self._stopping = True
            executor = self._executor
            if abort:
                self._executor = None
        if abort:
            self._abort_queued()
            if executor is not None:
                self._reap(executor, self.ABORT_GRACE if grace is None else grace)
            super().stop(wait=wait)
            return
        super().stop(wait=wait)
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)
            if not wait:
                self._reap(executor, self.ABORT_GRACE if grace is None else grace)

    def _reap(self, executor: ProcessPoolExecutor, grace: float) -> None:
        """Cancel pending work and guarantee every worker process exits.

        ``ProcessPoolExecutor.shutdown`` has no timeout: a worker stuck
        in a pathological job would block it forever.  Instead the
        worker processes are snapshotted, pending futures cancelled,
        and each process joined under a shared *grace* deadline —
        survivors are terminated, then joined unconditionally so no
        zombie is left behind.
        """
        processes = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + max(0.0, grace)
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            if process.is_alive():
                process.join(5.0)

    # ------------------------------------------------------------------
    def _proxy(self, job: Job) -> dict:
        """The ``execute`` callable: ship the job out, unwrap the reply."""
        kill = False
        if faults.ACTIVE is not None:
            if faults.ACTIVE.should_fire("procpool.pickle"):
                raise pickle.PicklingError(
                    f"injected pickling failure for job {job.id}"
                )
            kill = faults.ACTIVE.should_fire("procpool.kill") is not None
        with self._executor_lock:
            executor = self._executor
        if executor is None:
            raise ServiceError("process worker pool is not running")
        try:
            future = executor.submit(run_wire_job, job_wire(job))
            if kill:
                # After the submit, so the lazily-spawned worker exists:
                # this is a worker dying *mid-job*, the hardest case.
                self.kill_one_worker()
            envelope = future.result()
        except BrokenProcessPool as exc:
            # A worker died mid-job.  Replace the broken pool (unless
            # we are shutting down) and surface the failure tagged as a
            # crash: the pool forgives one crash per job without
            # charging the retry budget, then retries on the new pool.
            with self._executor_lock:
                if self._executor is executor:
                    executor.shutdown(wait=False, cancel_futures=True)
                    self._executor = (
                        None if self._stopping else self._make_executor()
                    )
                    respawned = not self._stopping
                else:
                    respawned = False
            if respawned and self._metrics is not None:
                self._metrics.inc("worker_respawns")
            error = RuntimeError(
                f"worker process died while executing job {job.id}: {exc}"
            )
            error.worker_crash = True
            raise error from exc
        except CancelledError as exc:
            # The supervisor replaced the pool under this future (a
            # sibling worker died idle).  CancelledError is a
            # BaseException — convert it so the retry path sees it.
            error = RuntimeError(
                f"job {job.id} was cancelled by a pool respawn"
            )
            error.worker_crash = True
            raise error from exc
        if trace.ACTIVE is not None and envelope.get("spans"):
            # Worker-side spans (even from failed attempts) join the
            # parent's trace here.
            trace.ACTIVE.merge(envelope["spans"])
        if envelope.get("ok"):
            if self._metrics is not None:
                for name, amount in envelope.get("computed", {}).items():
                    self._metrics.inc(name, amount)
            return envelope["result"]
        raise _rebuild_error(
            str(envelope.get("error_type", "RuntimeError")),
            str(envelope.get("message", "worker process failed")),
            bool(envelope.get("permanent")),
        )


def make_worker_pool(
    queue: JobQueue,
    *,
    config: ExecutorConfig,
    execute: Callable[[Job], dict],
    store_root: str | Path,
    metrics: ServiceMetrics | None = None,
    on_finish: Callable[[Job], None] | None = None,
    events: object | None = None,
) -> WorkerPool:
    """Build the worker pool *config* asks for.

    ``execute`` drives the thread backend (in-process executor);
    ``store_root`` drives the process backend (each worker opens its
    own executor over the shared store).
    """
    if config.backend == "process":
        return ProcessWorkerPool(
            queue,
            store_root,
            workers=config.workers,
            on_finish=on_finish,
            metrics=metrics,
            join_timeout=config.join_timeout,
            retry_policy=config.retry_policy(),
            tracing=config.tracing,
            events=events,
        )
    return WorkerPool(
        queue,
        execute,
        workers=config.workers,
        on_finish=on_finish,
        join_timeout=config.join_timeout,
        retry_policy=config.retry_policy(),
        events=events,
    )
