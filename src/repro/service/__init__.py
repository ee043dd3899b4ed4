"""Scheduling-as-a-service: store, jobs, HTTP API, client.

PR 1 gave the library a shared engine layer (fingerprints, cached
MinDist, a study runner); this package turns that substrate into a
long-running **service** so schedules are computed once and served many
times:

* :mod:`~repro.service.store` — a content-addressed, on-disk artifact
  store (schedules, study rows) with schema-versioned JSON envelopes.
  It survives restarts and also backs the study runner's per-loop
  cache (:func:`repro.experiments.stats.run_study`,
  ``hrms-experiments --store DIR``).
* :mod:`~repro.service.jobs` — the job model, a priority FIFO queue and
  a thread worker pool with retry + failure capture.
* :mod:`~repro.service.procpool` — the multi-process execution backend
  (:class:`~repro.service.procpool.ProcessWorkerPool`, selected via
  :class:`~repro.service.procpool.ExecutorConfig` or ``hrms-serve
  --backend process``): GIL-free scheduling with per-process warm
  caches over the shared store.
* :mod:`~repro.service.executor` — job execution: resolve a graph
  (serialized DDG or loop source), a machine (name or wire dict) and a
  scheduler, consult the store, schedule on miss.
* :mod:`~repro.service.api` — the ``http.server``-based JSON API
  (submit, batch submit, poll, fetch artifacts, ``/metrics``).
* :mod:`~repro.service.client` — a stdlib ``urllib`` client used by the
  ``hrms-submit`` CLI, the examples and the tests.

Everything is standard library (plus the NumPy the engine already
uses); the service adds no dependencies.
"""

from repro.service.api import SchedulingService, ServiceServer, make_server
from repro.service.client import ServiceClient
from repro.service.executor import SchedulingExecutor
from repro.service.jobs import Job, JobQueue, JobStatus, WorkerPool
from repro.service.metrics import ServiceMetrics
from repro.service.procpool import ExecutorConfig, ProcessWorkerPool
from repro.service.store import ArtifactStore, persistent_study_cache

__all__ = [
    "ArtifactStore",
    "ExecutorConfig",
    "Job",
    "JobQueue",
    "JobStatus",
    "ProcessWorkerPool",
    "SchedulingExecutor",
    "SchedulingService",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceServer",
    "WorkerPool",
    "make_server",
    "persistent_study_cache",
]
