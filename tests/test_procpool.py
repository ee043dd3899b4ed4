"""The multi-process execution backend (repro.service.procpool).

The acceptance bar: the process backend must produce artifacts
bit-identical to the thread backend for the same requests (timing
fields excepted — wall time is not part of a schedule's identity),
across plain schedulers *and* the virtual portfolio.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.errors import ServiceError
from repro.graph.serialization import graph_to_dict
from repro.service import ExecutorConfig, SchedulingService, ServiceServer
from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobQueue
from repro.service.procpool import (
    ProcessWorkerPool,
    _rebuild_error,
    job_wire,
    run_wire_job,
)
from repro.workloads.govindarajan import govindarajan_suite

#: Fields whose values legitimately differ between two runs of the same
#: request: wall-clock timings.  Everything else must match exactly.
# "integrity" is a digest over the whole envelope, wall-clock timing
# fields included, so it inherits their run-to-run variance.
TIMING_FIELDS = ("seconds", "integrity")


def _normalized(envelope: dict) -> dict:
    """An artifact envelope with wall-clock timing fields removed."""

    def scrub(value):
        if isinstance(value, dict):
            return {
                key: scrub(item)
                for key, item in value.items()
                if key not in TIMING_FIELDS
            }
        if isinstance(value, list):
            return [scrub(item) for item in value]
        return value

    return scrub(envelope)


def _settle(jobs: list[Job], timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while any(job.status not in ("done", "failed") for job in jobs):
        assert time.monotonic() < deadline, "jobs did not settle in time"
        time.sleep(0.01)


def _run_requests(store, requests: list[dict], config: ExecutorConfig):
    """Submit *requests* to a fresh service over *store*; return the
    settled jobs and the service (stopped)."""
    service = SchedulingService(store, config=config).start()
    try:
        jobs = [service.submit(request) for request in requests]
        _settle(jobs)
    finally:
        service.stop()
    return jobs, service


class TestExecutorConfig:
    def test_defaults(self):
        config = ExecutorConfig()
        assert config.backend == "thread"
        assert config.workers is None
        assert config.max_attempts == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError, match="unknown backend"):
            ExecutorConfig(backend="gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ServiceError, match="workers"):
            ExecutorConfig(workers=0)

    def test_bad_max_attempts_rejected(self):
        with pytest.raises(ServiceError, match="max_attempts"):
            ExecutorConfig(max_attempts=0)


class TestWireProtocol:
    def test_job_wire_is_pickle_safe(self, gov_suite):
        job = Job(
            kind="schedule",
            request={
                "graph": graph_to_dict(gov_suite[0].graph),
                "machine": "govindarajan",
            },
        )
        wire = job_wire(job)
        assert pickle.loads(pickle.dumps(wire)) == wire
        assert wire == {"kind": job.kind, "request": job.request}

    def test_uninitialized_worker_reports_transient_error(self):
        # run_wire_job in *this* process, where no initializer ran.
        envelope = run_wire_job({"kind": "schedule", "request": {}})
        assert envelope["ok"] is False
        assert envelope["permanent"] is False

    def test_rebuild_error_restores_repro_class(self):
        exc = _rebuild_error("ParseError", "line 1: nope", permanent=True)
        from repro.errors import ParseError, ReproError

        assert isinstance(exc, ParseError)
        assert isinstance(exc, ReproError)
        assert str(exc) == "line 1: nope"

    def test_rebuild_error_unknown_type_degrades_to_joberror(self):
        from repro.errors import JobError

        exc = _rebuild_error("WeirdError", "boom", permanent=True)
        assert isinstance(exc, JobError)
        assert "WeirdError" in str(exc) and "boom" in str(exc)

    def test_rebuild_error_transient_builtin(self):
        exc = _rebuild_error("ValueError", "bad", permanent=False)
        assert type(exc) is ValueError
        assert str(exc) == "bad"


def _dense_recurrence_graph(size: int = 9):
    """A complete digraph on *size* nodes, every cycle loop-carried:
    about 125,000 elementary circuits at ``size=9``, past the 50,000
    cap of :func:`repro.graph.circuits.elementary_circuits`."""
    from repro.graph.builder import GraphBuilder

    builder = GraphBuilder("circuit-bomb")
    names = [f"n{i}" for i in range(size)]
    for name in names:
        builder.op(name)
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if i != j:
                builder.edge(src, dst, distance=0 if i < j else 1)
    return builder.build()


class TestPermanentErrors:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_circuit_limit_fails_after_one_attempt(self, tmp_path, backend):
        """CircuitLimitExceeded is deterministic for a graph, so the
        pool must not re-run the enumeration on a retry."""
        jobs, _ = _run_requests(
            tmp_path / "store",
            [{
                "kind": "schedule",
                "graph": graph_to_dict(_dense_recurrence_graph()),
                "machine": "generic4",
            }],
            ExecutorConfig(backend=backend, workers=1, max_attempts=3),
        )
        (job,) = jobs
        assert job.status == "failed"
        assert job.attempts == 1
        assert job.error["type"] == "CircuitLimitExceeded"


class TestProcessWorkerPool:
    def test_schedules_end_to_end(self, tmp_path, gov_suite):
        requests = [
            {
                "kind": "schedule",
                "graph": graph_to_dict(loop.graph),
                "machine": "govindarajan",
            }
            for loop in gov_suite[:3]
        ]
        jobs, service = _run_requests(
            tmp_path / "store",
            requests,
            ExecutorConfig(backend="process", workers=2),
        )
        assert all(job.status == "done" for job in jobs)
        assert service.metrics.counter("schedules_computed") == 3
        for job in jobs:
            envelope = service.store.get(job.result["artifact"])
            assert envelope is not None
            assert envelope["payload"]["ii"] == job.result["ii"]

    def test_repro_error_fails_without_retry(self, tmp_path):
        jobs, _ = _run_requests(
            tmp_path / "store",
            [{"kind": "schedule", "source": "not a loop"}],
            ExecutorConfig(backend="process", workers=1),
        )
        (job,) = jobs
        assert job.status == "failed"
        assert job.attempts == 1  # deterministic failure: no retry
        assert job.error["type"] == "ParseError"

    def test_proxy_requires_running_pool(self, tmp_path):
        pool = ProcessWorkerPool(JobQueue(), tmp_path / "store")
        with pytest.raises(ServiceError, match="not running"):
            pool._proxy(Job(kind="schedule", request={}))

    def test_dead_worker_is_transient_and_pool_is_replaced(self, tmp_path):
        """A worker crash (BrokenProcessPool) must surface as a
        *transient* error — so the retry path runs — and leave a fresh,
        working pool behind instead of a wedged dispatcher."""
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessWorkerPool(
            JobQueue(), tmp_path / "store", workers=1
        )

        class _BrokenExecutor:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        pool._executor = _BrokenExecutor()
        job = Job(kind="schedule", request={})
        with pytest.raises(RuntimeError, match="worker process died") as info:
            pool._proxy(job)
        # Not a ReproError: the jobs layer will classify it transient.
        from repro.errors import ReproError

        assert not isinstance(info.value, ReproError)
        # The broken executor was swapped for a real one.
        assert pool._executor is not None
        assert not isinstance(pool._executor, _BrokenExecutor)
        pool._executor.shutdown(wait=True)

    def test_http_service_on_process_backend(self, tmp_path, gov_suite):
        with ServiceServer(
            tmp_path / "store",
            config=ExecutorConfig(backend="process", workers=2),
        ) as server:
            client = ServiceClient(server.url)
            health = client._call("GET", "/healthz")
            assert health["ok"] is True
            assert health["backend"] == "process"
            assert health["live"] is True
            assert health["ready"] is True
            job_id = client.submit_graph(
                gov_suite[0].graph, machine="govindarajan"
            )
            record = client.wait(job_id, timeout=60)
            assert record["status"] == "done"
            assert client.artifact(record["result"]["artifact"])


class TestWorkerCrashRecovery:
    """SIGKILL a worker mid-job: the job must be retried exactly once
    (without consuming its attempt budget), complete bit-identically to
    an undisturbed run, and leave the pool at full strength."""

    def test_sigkill_mid_job_recovers_bit_identically(
        self, tmp_path, gov_suite
    ):
        import random

        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultRule
        from repro.workloads.synthetic import random_ddg

        warm_request = {
            "kind": "schedule",
            "graph": graph_to_dict(gov_suite[0].graph),
            "machine": "govindarajan",
        }
        # The kill is sent from the parent right after the submit, so it
        # races the worker finishing the job: a tiny victim can complete
        # before the SIGKILL lands, which is exactly the flake this test
        # used to have.  A ~96-op victim keeps the worker busy for
        # hundreds of milliseconds (the kill takes microseconds), and the
        # bounded retry over *distinct* victims (a repeat would be a
        # store hit, not a compute) covers the residual window on
        # heavily-loaded boxes.
        victims = [
            random_ddg(random.Random(9100 + i), 96, name=f"victim{i}")
            for i in range(3)
        ]
        service = SchedulingService(
            tmp_path / "store",
            config=ExecutorConfig(backend="process", workers=2),
        ).start()
        try:
            # Warm the pool so a worker process exists to be killed.
            _settle([service.submit(warm_request)])
            assert service.pool.alive_workers() >= 1
            for victim in victims:
                victim_request = {
                    "kind": "schedule",
                    "graph": graph_to_dict(victim),
                    "machine": "perfect-club",
                    "scheduler": "sms",
                }
                plan = FaultPlan(
                    seed=1, rules=(FaultRule("procpool.kill", max_fires=1),)
                )
                with faults.injected(plan) as injector:
                    job = service.submit(victim_request)
                    _settle([job])
                    assert injector.fired()["procpool.kill"] == 1
                assert job.status == "done"
                if job.crash_requeues == 1:
                    break
                # The worker outran the SIGKILL: the job finished before
                # the pool broke.  Not a recovery failure — retry the
                # scenario on a fresh victim.
            else:
                pytest.fail(
                    "SIGKILL never landed mid-job in "
                    f"{len(victims)} attempts"
                )
            # The crash was forgiven exactly once, off the retry budget.
            assert job.crash_requeues == 1
            assert job.attempts == 1
            assert service.metrics.counter("worker_respawns") >= 1
            # The recovered artifact is bit-identical to an undisturbed
            # thread-backend run of the same victim.
            reference_jobs, reference_service = _run_requests(
                tmp_path / "reference-store",
                [victim_request],
                ExecutorConfig(backend="thread", workers=1),
            )
            reference = reference_service.store.get(
                reference_jobs[0].result["artifact"]
            )
            assert job.result["artifact"] == reference_jobs[0].result[
                "artifact"
            ]
            envelope = service.store.get(job.result["artifact"])
            assert _normalized(envelope) == _normalized(reference)
            # The respawned pool is at full strength: two concurrent
            # uncached jobs (big enough to overlap) force both workers
            # to spawn and run.
            followups = [
                service.submit(
                    {
                        "kind": "schedule",
                        "graph": graph_to_dict(
                            random_ddg(
                                random.Random(9200 + i),
                                48,
                                name=f"followup{i}",
                            )
                        ),
                        "machine": "perfect-club",
                        "scheduler": "topdown",
                    }
                )
                for i in range(2)
            ]
            _settle(followups)
            assert all(j.status == "done" for j in followups)
            assert service.pool.alive_workers() == 2
        finally:
            service.stop()


class TestBackendParity:
    """Thread and process backends must converge on identical bits."""

    SCHEDULERS = ("hrms", "sms", "topdown", "portfolio")

    def _requests(self, gov_suite):
        return [
            {
                "kind": "schedule",
                "graph": graph_to_dict(loop.graph),
                "machine": "govindarajan",
                "scheduler": scheduler,
            }
            for loop in gov_suite[:2]
            for scheduler in self.SCHEDULERS
        ]

    def _run_waved(self, store, requests, config):
        """Run plain schedulers first, portfolios second, so a member's
        decision-record ``source`` ("store" vs "raced") is deterministic
        instead of depending on worker completion order."""
        plain = [r for r in requests if r["scheduler"] != "portfolio"]
        races = [r for r in requests if r["scheduler"] == "portfolio"]
        jobs, _ = _run_requests(store, plain, config)
        race_jobs, service = _run_requests(store, races, config)
        return jobs + race_jobs, service

    def test_artifacts_bit_identical_across_backends(
        self, tmp_path, gov_suite
    ):
        requests = self._requests(gov_suite)
        thread_jobs, thread_service = self._run_waved(
            tmp_path / "thread-store",
            requests,
            ExecutorConfig(backend="thread", workers=2),
        )
        process_jobs, process_service = self._run_waved(
            tmp_path / "process-store",
            requests,
            ExecutorConfig(backend="process", workers=2),
        )
        assert all(job.status == "done" for job in thread_jobs)
        assert all(job.status == "done" for job in process_jobs)
        for thread_job, process_job in zip(thread_jobs, process_jobs):
            # Same request => same content address, on both backends.
            assert (
                thread_job.result["artifact"]
                == process_job.result["artifact"]
            )
            thread_envelope = thread_service.store.get(
                thread_job.result["artifact"]
            )
            process_envelope = process_service.store.get(
                process_job.result["artifact"]
            )
            assert _normalized(thread_envelope) == _normalized(
                process_envelope
            )
        # The portfolio races also cached their members under their own
        # keys — those artifacts must agree between the stores too.
        thread_keys = set(thread_service.store.iter_keys())
        process_keys = set(process_service.store.iter_keys())
        assert thread_keys == process_keys
        for key in sorted(thread_keys):
            assert _normalized(thread_service.store.get(key)) == _normalized(
                process_service.store.get(key)
            )

    def test_process_backend_serves_warm_store_without_computing(
        self, tmp_path, gov_suite
    ):
        store = tmp_path / "store"
        requests = self._requests(gov_suite)[:3]
        _run_requests(
            store, requests, ExecutorConfig(backend="process", workers=2)
        )
        jobs, service = _run_requests(
            store, requests, ExecutorConfig(backend="process", workers=2)
        )
        assert all(job.result["cached"] for job in jobs)
        assert service.metrics.counter("schedules_computed") == 0

    def test_worker_store_counters_reach_the_parent(
        self, tmp_path, gov_suite
    ):
        store = tmp_path / "store"
        request = self._requests(gov_suite)[0]
        config = ExecutorConfig(backend="process", workers=1)
        _, cold = _run_requests(store, [request], config)
        stats = cold.store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (0, 1, 1)
        # A fresh service has no request alias: the repeat reaches a
        # worker, which answers it from the warm store.
        jobs, warm = _run_requests(store, [request], config)
        assert jobs[0].result["cached"]
        stats = warm.store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 0, 0)
        assert stats.quarantined == 0
        metrics = warm.metrics_text().splitlines()
        assert "hrms_store_hits 1" in metrics
        assert "hrms_store_misses 0" in metrics


class TestShutdownReaping:
    """`hrms-serve --backend process` shutdown: the worker pool must be
    terminated and joined (no orphaned worker processes), and pending
    jobs settled as failed rather than wedging the stop."""

    def _worker_pids(self, service) -> list[int]:
        executor = service.pool._executor
        assert executor is not None
        return [p.pid for p in executor._processes.values()]

    def _assert_reaped(self, pids: list[int], timeout: float = 10.0) -> None:
        import os

        deadline = time.monotonic() + timeout
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except (ProcessLookupError, OSError):
                    break  # gone (or at least not ours any more)
                assert time.monotonic() < deadline, (
                    f"worker process {pid} survived pool shutdown"
                )
                time.sleep(0.05)

    def test_graceful_stop_reaps_workers(self, tmp_path, gov_suite):
        service = SchedulingService(
            tmp_path / "store",
            config=ExecutorConfig(backend="process", workers=2),
        ).start()
        job = service.submit(
            {
                "kind": "schedule",
                "graph": graph_to_dict(gov_suite[0].graph),
                "machine": "govindarajan",
            }
        )
        _settle([job])
        pids = self._worker_pids(service)
        assert pids, "expected live worker processes"
        service.stop()
        self._assert_reaped(pids)

    def test_abort_stop_reaps_workers_and_fails_queued(
        self, tmp_path, gov_suite
    ):
        service = SchedulingService(
            tmp_path / "store",
            config=ExecutorConfig(backend="process", workers=1),
        ).start()
        first = service.submit(
            {
                "kind": "schedule",
                "graph": graph_to_dict(gov_suite[0].graph),
                "machine": "govindarajan",
            }
        )
        _settle([first])
        pids = self._worker_pids(service)
        assert pids
        # Queue work, then abort before the dispatcher can finish it
        # all: whatever is still queued must settle as failed.
        backlog = [
            service.submit(
                {
                    "kind": "schedule",
                    "graph": graph_to_dict(loop.graph),
                    "machine": "govindarajan",
                    "scheduler": scheduler,
                }
            )
            for loop in gov_suite[:6]
            for scheduler in ("sms", "ims", "slack")
        ]
        service.stop(abort=True)
        self._assert_reaped(pids)
        _settle(backlog, timeout=5.0)
        statuses = {job.status for job in backlog}
        assert statuses <= {"done", "failed"}
        failed = [job for job in backlog if job.status == "failed"]
        for job in failed:
            # "stopped": drained from the queue; "died"/"cancelled": the
            # abort caught the job mid-flight on the pool.
            assert any(
                word in job.error["message"]
                for word in ("stopped", "died", "cancelled")
            )

    def test_serve_main_sigterm_shuts_down_cleanly(self, tmp_path):
        """hrms-serve must exit 0 on SIGTERM, settling the pool (the
        default disposition would kill the parent and orphan the
        worker processes)."""
        import signal
        import subprocess
        import sys

        code = (
            "from repro.service.cli import serve_main\n"
            "raise SystemExit(serve_main(["
            "'--store', r'%s', '--port', '0', "
            "'--backend', 'process', '--workers', '1']))\n"
            % (tmp_path / "store")
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # Wait for the banner so the pool exists before the signal.
            line = ""
            deadline = time.monotonic() + 60
            while "listening on" not in line:
                assert time.monotonic() < deadline
                line = proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "hrms-serve: stopped" in out
