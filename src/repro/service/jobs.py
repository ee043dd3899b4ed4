"""Job model, priority FIFO queue, and thread worker pool.

A :class:`Job` is one unit of service work (schedule a loop, run a
suite).  Jobs flow ``queued → running → done | failed | timeout``;
transient failures are retried up to ``max_attempts`` with exponential
backoff (:class:`~repro.service.resilience.RetryPolicy`), while
deterministic domain failures (:class:`~repro.errors.ReproError` — a
malformed graph will be exactly as malformed on the second try) fail
immediately with the error captured on the job.  A job carrying a
deadline is cancelled cooperatively (:mod:`repro.cancel`) and settles
in the distinct ``timeout`` state.

The queue is a *priority FIFO*: higher ``priority`` pops first, equal
priorities pop in submission order (a monotonically increasing sequence
number breaks ties, so the heap never compares jobs).  It can be
bounded: past ``max_depth`` external pushes raise
:class:`~repro.errors.QueueFullError` (the API maps this to HTTP 429),
while internal retry requeues bypass the cap — shedding a retry would
turn backpressure into a lost job.

Workers are plain threads — scheduling paper-scale loops is
milliseconds of NumPy-heavy work; a ``suite`` job runs its study
serially inside the worker that owns it.  For CPU-bound cold traffic,
:mod:`repro.service.procpool` runs the same jobs in worker processes.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable

from repro import cancel
from repro.errors import DeadlineExceededError, QueueFullError, ReproError
from repro.obs import trace
from repro.service.resilience import RetryPolicy

logger = logging.getLogger(__name__)


class JobStatus:
    """String constants for the job lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"

    ALL = (QUEUED, RUNNING, DONE, FAILED, TIMEOUT)
    #: Terminal states — a poller may stop watching.
    SETTLED = (DONE, FAILED, TIMEOUT)


def new_job_id() -> str:
    """A short, unique, URL-safe job id."""
    return uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One unit of service work and its full lifecycle record."""

    kind: str
    request: dict
    id: str = field(default_factory=new_job_id)
    priority: int = 0
    max_attempts: int = 2
    #: Absolute wall-clock deadline (``time.time()``), or ``None``.
    deadline: float | None = None
    status: str = JobStatus.QUEUED
    attempts: int = 0
    #: Crash re-enqueues consumed (worker death is forgiven exactly once
    #: without charging the retry budget).
    crash_requeues: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: dict | None = None
    #: Trace id stamped at submission when tracing is armed.
    trace_id: str | None = None
    #: The live root ("request") span — internal, not serialized.
    trace_root: object | None = field(default=None, repr=False, compare=False)
    #: Canonical hash of ``(kind, request)`` — the service's request
    #: alias key, stamped at submission; internal, not serialized.
    alias: str | None = field(default=None, repr=False, compare=False)
    #: Settled at submission from the request alias, never queued.
    admitted: bool = False

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall time, once the job is finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict:
        """The public (API) view of the job."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "priority": self.priority,
            "attempts": self.attempts,
            "deadline": self.deadline,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
            "trace_id": self.trace_id,
        }


class JobQueue:
    """Thread-safe priority FIFO of :class:`Job` objects.

    ``max_depth`` bounds *external* submissions (``push``); the retry
    path uses :meth:`requeue`, which ignores the bound.
    """

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self._heap: list[tuple[int, int, Job]] = []
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._closed = False
        self.max_depth = max_depth

    def push(self, job: Job) -> None:
        """Enqueue *job* (higher priority first, FIFO within a level).

        Raises :class:`~repro.errors.QueueFullError` when a depth cap
        is configured and already reached (backpressure)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if (
                self.max_depth is not None
                and len(self._heap) >= self.max_depth
            ):
                raise QueueFullError(
                    f"job queue is full ({self.max_depth} waiting); "
                    f"retry later"
                )
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            self._cond.notify()

    def requeue(self, job: Job) -> None:
        """Re-enqueue a job the pool already accepted (retry path).

        Exempt from ``max_depth``: the job was admitted once, and
        dropping it now would lose it."""
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> Job | None:
        """Dequeue the next job, blocking; ``None`` on close/timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return heapq.heappop(self._heap)[2]

    def close(self) -> None:
        """Wake every blocked consumer; further pushes are errors."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> list[Job]:
        """Close the queue and return every job still waiting, in pop
        order.  Used by abort-style shutdown to settle queued jobs as
        failed instead of leaving them ``queued`` forever."""
        with self._cond:
            self._closed = True
            drained = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
            self._cond.notify_all()
        return drained

    @property
    def closed(self) -> bool:
        """Whether the queue refuses further pushes (service stopped)."""
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    @property
    def depth(self) -> int:
        """Jobs currently waiting (the /metrics gauge)."""
        return len(self)


class WorkerPool:
    """Threads draining a :class:`JobQueue` through an execute callable.

    ``execute(job) -> dict`` produces the job's result.  Exceptions are
    captured on the job: :class:`~repro.errors.ReproError` fails the job
    immediately (deterministic), :class:`DeadlineExceededError` settles
    it as ``timeout``, anything else requeues it — after the
    ``retry_policy`` backoff — until ``job.max_attempts`` is exhausted.
    An exception tagged ``worker_crash=True`` (a process-backend worker
    died under the job) is forgiven exactly once per job without
    consuming an attempt.  ``on_finish(job)`` fires exactly once per
    job, after it reaches a settled status.
    """

    def __init__(
        self,
        queue: JobQueue,
        execute: Callable[[Job], dict],
        *,
        workers: int | None = None,
        on_finish: Callable[[Job], None] | None = None,
        join_timeout: float = 10.0,
        retry_policy: RetryPolicy | None = None,
        events: object | None = None,
    ) -> None:
        import os

        self.queue = queue
        self._execute = execute
        self._on_finish = on_finish
        #: Optional :class:`repro.obs.events.EventLog` for lifecycle events.
        self.events = events
        self.workers = workers or min(8, os.cpu_count() or 1)
        self.join_timeout = join_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self._threads: list[threading.Thread] = []
        self._timers_lock = threading.Lock()
        self._timers: dict[int, tuple[threading.Timer, Job]] = {}
        self._timer_seq = itertools.count()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"hrms-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @property
    def started(self) -> bool:
        """Whether worker threads are running (readiness probe)."""
        return bool(self._threads)

    def stop(self, wait: bool = True, abort: bool = False) -> None:
        """Close the queue and (optionally) join the workers.

        The default is graceful: workers finish everything already
        queued before exiting.  ``abort=True`` is the Ctrl-C/SIGTERM
        path — jobs still waiting in the queue are settled as *failed*
        (with the shutdown captured as their error) rather than run, so
        no poller is left watching a job that will never settle.
        """
        self._flush_timers(abort=abort)
        if abort:
            self._abort_queued()
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=self.join_timeout)
                if thread.is_alive():
                    # A wedged worker is an observability event, not a
                    # silent leak: say which thread and how long we gave it.
                    logger.warning(
                        "worker thread %s did not join within %.1fs; "
                        "abandoning it (daemon)",
                        thread.name,
                        self.join_timeout,
                    )
        self._threads = []

    def _flush_timers(self, abort: bool) -> None:
        """Cancel pending backoff timers; their jobs are either
        requeued now (graceful: they still get their retry, without the
        delay) or failed (abort)."""
        from repro.errors import ServiceError

        with self._timers_lock:
            pending = list(self._timers.values())
            self._timers.clear()
        for timer, job in pending:
            timer.cancel()
            if abort:
                self._fail(
                    job,
                    ServiceError(
                        f"service stopped before job {job.id} was retried"
                    ),
                )
            else:
                try:
                    self.queue.requeue(job)
                except RuntimeError:
                    self._fail(
                        job,
                        ServiceError(
                            f"service stopped before job {job.id} was retried"
                        ),
                    )

    def _abort_queued(self) -> None:
        """Drain the queue and fail every job that never started."""
        from repro.errors import ServiceError

        for job in self.queue.drain():
            self._fail(
                job,
                ServiceError(
                    f"service stopped before job {job.id} was executed"
                ),
            )

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return
            self.run_job(job)

    def run_job(self, job: Job) -> None:
        """Execute one job with retry + failure capture (synchronous)."""
        if job.deadline is not None and time.time() >= job.deadline:
            # Expired while waiting in the queue: never start it.
            self._timeout(
                job,
                DeadlineExceededError(
                    f"job {job.id} deadline expired before execution"
                ),
            )
            return
        job.attempts += 1
        job.status = JobStatus.RUNNING
        job.started_at = time.time()
        if self.events is not None:
            self._emit("job.started", job, attempt=job.attempts)
        try:
            root = job.trace_root
            if root is not None and trace.ACTIVE is not None:
                with trace.attach(job.trace_id, root.span_id):
                    if job.attempts == 1:
                        # The wait was not bracketed by code; synthesize
                        # it from the job's own timestamps.
                        trace.record_span(
                            "queue.wait",
                            job.trace_id,
                            root.span_id,
                            start=job.submitted_at,
                            end=job.started_at,
                        )
                    with trace.span("executor", attempt=job.attempts):
                        with cancel.deadline_scope(job.deadline):
                            result = self._execute(job)
            else:
                with cancel.deadline_scope(job.deadline):
                    result = self._execute(job)
        except DeadlineExceededError as exc:
            self._timeout(job, exc)
        except ReproError as exc:
            # Domain failures are deterministic; retrying cannot help.
            self._fail(job, exc)
        except Exception as exc:  # noqa: BLE001 - captured on the job
            if getattr(exc, "worker_crash", False) and job.crash_requeues == 0:
                # A worker died under the job — forgiven exactly once,
                # without consuming an attempt.
                job.crash_requeues = 1
                job.attempts -= 1
                self._requeue_after(job, exc, delay=0.0)
            elif job.attempts < job.max_attempts:
                delay = self.retry_policy.delay(job.attempts, job.id)
                if (
                    job.deadline is not None
                    and time.time() + delay >= job.deadline
                ):
                    # The backoff alone would blow the deadline.
                    self._timeout(
                        job,
                        DeadlineExceededError(
                            f"job {job.id} deadline leaves no room for "
                            f"retry backoff ({delay:.3f}s)"
                        ),
                    )
                else:
                    self._requeue_after(job, exc, delay=delay)
            else:
                self._fail(job, exc)
        else:
            job.result = result
            job.finished_at = time.time()
            # Status flips last: pollers return on a settled status, so
            # result/finished_at must already be visible by then.
            job.status = JobStatus.DONE
            if self._on_finish is not None:
                self._on_finish(job)

    def _emit(self, type_: str, job: Job, **fields: object) -> None:
        """Journal a job-lifecycle event (no-op without an event log)."""
        if self.events is None:
            return
        if job.trace_id is not None:
            fields.setdefault("trace_id", job.trace_id)
        self.events.emit(type_, job=job.id, kind=job.kind, **fields)

    def _requeue_after(
        self, job: Job, exc: BaseException, delay: float
    ) -> None:
        """Put *job* back on the queue after *delay* seconds (0 = now)."""
        if self.events is not None:
            self._emit(
                "job.retried",
                job,
                attempt=job.attempts,
                delay=round(delay, 6),
                crash=bool(getattr(exc, "worker_crash", False)),
                error=type(exc).__name__,
            )
        job.status = JobStatus.QUEUED
        if delay <= 0.0:
            try:
                self.queue.requeue(job)
            except RuntimeError:
                self._fail(job, exc)
            return
        token = next(self._timer_seq)

        def fire() -> None:
            with self._timers_lock:
                if self._timers.pop(token, None) is None:
                    return  # stop() already flushed this retry
            try:
                self.queue.requeue(job)
            except RuntimeError:
                self._fail(job, exc)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        with self._timers_lock:
            self._timers[token] = (timer, job)
        timer.start()

    def _fail(self, job: Job, exc: BaseException) -> None:
        job.error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "attempts": job.attempts,
        }
        job.finished_at = time.time()
        # Status flips last (see run_job): a "failed" observer must
        # already see the captured error and timestamp.
        job.status = JobStatus.FAILED
        if self._on_finish is not None:
            self._on_finish(job)

    def _timeout(self, job: Job, exc: DeadlineExceededError) -> None:
        """Settle *job* in the distinct ``timeout`` state."""
        job.error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "attempts": job.attempts,
        }
        job.finished_at = time.time()
        # Status flips last, as everywhere.
        job.status = JobStatus.TIMEOUT
        if self._on_finish is not None:
            self._on_finish(job)
