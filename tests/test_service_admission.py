"""Admission: a request that already settled ``done`` is answered at
submit time from the service's request alias and never enters the
queue.

Every case here fails when admission is removed or mis-wired: the
repeat must settle at submit (not through a worker), its result must
equal the worker's store-hit result byte for byte, degraded, failed and
timed-out answers must never be aliased, and an artifact that is gone
or corrupt must fall through to a recompute that refreshes the alias.
"""

import json
import time

import pytest

from repro.graph.serialization import graph_to_dict
from repro.obs.events import read_events
from repro.service import api, faults
from repro.service.api import SchedulingService, ServiceServer
from repro.service.faults import FaultPlan, FaultRule
from repro.service.jobs import JobStatus
from repro.workloads.govindarajan import govindarajan_suite


def schedule_request(index: int = 0, scheduler: str = "hrms") -> dict:
    loop = govindarajan_suite()[index]
    return {
        "kind": "schedule",
        "graph": graph_to_dict(loop.graph),
        "machine": "govindarajan",
        "scheduler": scheduler,
    }


SUITE_REQUEST = {"kind": "suite", "suite": "govindarajan", "n_loops": 2}


def settle(job, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while job.status not in JobStatus.SETTLED:
        assert time.monotonic() < deadline, f"job {job.id} never settled"
        time.sleep(0.01)
    return job


def spy_on_queue(service: SchedulingService) -> list[str]:
    """Record the id of every job pushed onto *service*'s queue."""
    pushed: list[str] = []
    push = service.queue.push

    def recording_push(job):
        pushed.append(job.id)
        push(job)

    service.queue.push = recording_push
    return pushed


@pytest.fixture
def service(tmp_path):
    live = SchedulingService(tmp_path / "store", workers=1).start()
    yield live
    live.stop()


class TestAdmission:
    def test_repeat_settles_at_submit_without_queueing(self, service):
        pushed = spy_on_queue(service)
        first = settle(service.submit(schedule_request()))
        assert first.status == "done" and not first.admitted
        assert pushed == [first.id]

        again = service.submit(schedule_request())
        # Settled before submit returned: nothing to wait for.
        assert again.status == "done"
        assert again.admitted
        assert again.attempts == 1
        assert again.result["cached"] is True
        assert again.result["artifact"] == first.result["artifact"]
        assert pushed == [first.id]
        assert service.metrics.counter("jobs_admitted") == 1
        assert service.job(again.id) is again

    def test_control_fields_do_not_split_the_alias(self, service):
        settle(service.submit(schedule_request()))
        body = {**schedule_request(), "priority": 5, "timeout": 30}
        assert service.submit(body).admitted

    def test_distinct_request_is_not_admitted(self, service):
        settle(service.submit(schedule_request(0)))
        other = service.submit(schedule_request(1))
        assert not other.admitted
        assert settle(other).status == "done"

    def test_http_202_carries_done(self, tmp_path):
        from repro.service.client import ServiceClient

        with ServiceServer(tmp_path / "store", workers=1) as server:
            client = ServiceClient(server.url)
            first = client._call("POST", "/v1/jobs", schedule_request())
            assert first["status"] in ("queued", "running", "done")
            client.wait(first["id"], timeout=60)
            again = client._call("POST", "/v1/jobs", schedule_request())
            assert again["status"] == "done"
            record = client.job(again["id"])
            assert record["status"] == "done"
            assert record["result"]["cached"] is True
            assert "hrms_jobs_admitted_total 1" in client.metrics()

    def test_http_202_of_an_admitted_job_is_its_record(self, tmp_path):
        from repro.service.client import ServiceClient

        with ServiceServer(tmp_path / "store", workers=1) as server:
            client = ServiceClient(server.url)
            first = client._call("POST", "/v1/jobs", schedule_request())
            assert set(first) - {"trace"} == {"id", "status"}
            client.wait(first["id"], timeout=60)
            again = client._call("POST", "/v1/jobs", schedule_request())
            assert again["status"] == "done"
            assert again["result"]["cached"] is True
            assert again["attempts"] == 1
            record = client.job(again["id"])
            assert {k: v for k, v in again.items() if k != "trace"} == record

    def test_client_waits_on_an_admitted_job_without_a_get(self, tmp_path):
        from repro.service.client import ServiceClient

        with ServiceServer(tmp_path / "store", workers=1) as server:
            client = ServiceClient(server.url)
            calls = []
            call_once = client._call_once

            def recording(method, path, *args, **kwargs):
                calls.append((method, path))
                return call_once(method, path, *args, **kwargs)

            client._call_once = recording
            first = client.submit(schedule_request())
            client.result(first, timeout=60)
            assert ("GET", f"/v1/jobs/{first}") in calls
            calls.clear()
            again = client.submit(schedule_request())
            envelope = client.result(again, timeout=60)
            assert calls == [
                ("POST", "/v1/jobs"),
                ("GET", f"/v1/artifacts/{envelope['key']}"),
            ]
            # The record serves one wait; the next one asks the server.
            assert client.wait(again)["status"] == "done"
            assert calls[-1] == ("GET", f"/v1/jobs/{again}")

    def test_batch_members_are_admitted(self, service):
        pushed = spy_on_queue(service)
        settle(service.submit(schedule_request(0)))
        settle(service.submit(schedule_request(1)))
        batch = service.submit_batch(
            [schedule_request(0), schedule_request(2), schedule_request(1)]
        )
        assert [job.admitted for job in batch] == [True, False, True]
        assert pushed[2:] == [batch[1].id]
        assert all(settle(job).status == "done" for job in batch)

    def test_full_queue_still_admits(self, tmp_path):
        from repro.errors import QueueFullError
        from repro.service.procpool import ExecutorConfig

        config = ExecutorConfig(workers=1, max_queue_depth=1)
        service = SchedulingService(tmp_path / "store", config=config).start()
        plan = FaultPlan(
            rules=(FaultRule("executor.latency", max_fires=1, delay_s=1.0),)
        )
        try:
            settle(service.submit(schedule_request(0)))
            with faults.injected(plan):
                busy = service.submit(schedule_request(1))
                while busy.status != "running":
                    time.sleep(0.005)
                service.submit(schedule_request(2))  # fills the queue
                with pytest.raises(QueueFullError):
                    service.submit(schedule_request(3))
                # The queue sheds only compute: a repeat still answers.
                assert service.submit(schedule_request(0)).status == "done"
                settle(busy)
        finally:
            service.stop()

    def test_stopped_service_takes_the_queue_path(self, service):
        settle(service.submit(schedule_request()))
        service.stop()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(schedule_request())


class TestResultParity:
    """An admission hit and a worker-path store hit build the same
    result from the same envelope."""

    @staticmethod
    def _worker_hit_then_admission(store, backend, body):
        computing = SchedulingService(store, workers=1).start()
        try:
            settle(computing.submit(body), timeout=120)
        finally:
            computing.stop()
        # A fresh service has an empty alias: its first answer is a
        # worker-path store hit, its second an admission hit.
        fresh = SchedulingService(store, workers=1, backend=backend).start()
        try:
            worker = settle(fresh.submit(body), timeout=120)
            admitted = fresh.submit(body)
        finally:
            fresh.stop()
        assert not worker.admitted and admitted.admitted
        return worker.result, admitted.result

    @pytest.mark.parametrize(
        "body",
        [
            schedule_request(),
            schedule_request(scheduler="portfolio"),
            SUITE_REQUEST,
        ],
        ids=["hrms", "portfolio", "suite"],
    )
    def test_thread_backend(self, tmp_path, body):
        worker, admitted = self._worker_hit_then_admission(
            tmp_path / "store", "thread", body
        )
        assert worker["cached"] is True
        assert json.dumps(admitted) == json.dumps(worker)

    @pytest.mark.parametrize("scheduler", ["hrms", "portfolio"])
    def test_process_backend(self, tmp_path, scheduler):
        body = schedule_request(scheduler=scheduler)
        worker, admitted = self._worker_hit_then_admission(
            tmp_path / "store", "process", body
        )
        assert worker["cached"] is True
        assert json.dumps(admitted) == json.dumps(worker)


class TestNeverAliased:
    def test_degraded_portfolio(self, service):
        body = schedule_request(scheduler="portfolio")
        service.executor.breaker.force_open()
        degraded = settle(service.submit(body))
        assert degraded.result["degraded"] is True
        assert len(service._aliases) == 0
        # Still degraded, and through a worker: nothing was aliased.
        again = settle(service.submit(body))
        assert not again.admitted and again.result["degraded"] is True

        service.executor.breaker.record_success()
        real = settle(service.submit(body))
        assert not real.admitted
        assert "degraded" not in real.result
        assert real.result["cached"] is False
        envelope = service.store.get(real.result["artifact"])
        assert envelope["kind"] == "portfolio"
        # The real answer is canonical: the next repeat is admitted.
        assert service.submit(body).result == {**real.result, "cached": True}

    def test_failed_job(self, service):
        body = {**schedule_request(), "max_attempts": 1}
        plan = FaultPlan(rules=(FaultRule("executor.error", max_fires=1),))
        with faults.injected(plan):
            failed = settle(service.submit(body))
        assert failed.status == "failed"
        assert len(service._aliases) == 0
        retry = service.submit(body)
        assert not retry.admitted
        assert settle(retry).status == "done"
        assert service.submit(body).admitted

    def test_timed_out_job(self, service):
        body = {**schedule_request(), "timeout": 0.05}
        plan = FaultPlan(
            rules=(FaultRule("executor.latency", max_fires=1, delay_s=0.2),)
        )
        with faults.injected(plan):
            late = settle(service.submit(body))
        assert late.status == "timeout"
        assert len(service._aliases) == 0
        body["timeout"] = 30
        retry = service.submit(body)
        assert not retry.admitted
        assert settle(retry).status == "done"
        assert service.submit(body).admitted


class TestBrokenArtifacts:
    def _aliased(self, service):
        job = settle(service.submit(schedule_request()))
        assert len(service._aliases) == 1
        return job.result["artifact"]

    def test_deleted_artifact_recomputes_and_refreshes(self, service):
        key = self._aliased(service)
        assert service.store.delete(key)
        computed = service.metrics.counter("schedules_computed")
        retry = service.submit(schedule_request())
        assert not retry.admitted
        assert settle(retry).result["cached"] is False
        assert service.metrics.counter("schedules_computed") == computed + 1
        assert key in service.store
        assert service.submit(schedule_request()).admitted

    def test_corrupt_artifact_is_quarantined_at_admission(self, service):
        key = self._aliased(service)
        path = service.store._path_for(key)
        path.write_text(path.read_text()[:40], encoding="utf-8")
        retry = service.submit(schedule_request())
        assert not retry.admitted
        assert service.store.stats().quarantined == 1
        assert settle(retry).result["cached"] is False
        assert service.store.get(key) is not None
        assert service.submit(schedule_request()).admitted

    def test_alias_dropped_when_recompute_fails(self, service):
        key = self._aliased(service)
        path = service.store._path_for(key)
        path.write_text("{", encoding="utf-8")
        body = {**schedule_request(), "max_attempts": 1}
        plan = FaultPlan(rules=(FaultRule("executor.error", max_fires=1),))
        with faults.injected(plan):
            failed = settle(service.submit(body))
        assert not failed.admitted and failed.status == "failed"
        assert len(service._aliases) == 0


class TestBoundsAndAccounting:
    def test_alias_bound_evicts_oldest(self, service, monkeypatch):
        monkeypatch.setattr(api, "REQUEST_ALIASES_KEPT", 2)
        for index in range(3):
            settle(service.submit(schedule_request(index)))
        assert len(service._aliases) == 2
        assert not service.submit(schedule_request(0)).admitted
        assert service.submit(schedule_request(2)).admitted

    def test_counters_and_events_settle_once(self, tmp_path):
        service = SchedulingService(tmp_path / "store", workers=1).start()
        try:
            jobs = [settle(service.submit(schedule_request(0)))]
            jobs += [service.submit(schedule_request(0)) for _ in range(3)]
            jobs += service.submit_batch(
                [schedule_request(0), schedule_request(1)]
            )
            for job in jobs:
                settle(job)
            metrics = service.metrics
            assert metrics.counter("jobs_submitted") == len(jobs) == 6
            assert metrics.counter("jobs_admitted") == 4
            assert metrics.counter("jobs_submitted") == (
                metrics.counter("jobs_done")
                + metrics.counter("jobs_failed")
                + metrics.counter("jobs_timeout")
            )
        finally:
            service.stop()
        events = list(read_events(service.events.path))
        for job in jobs:
            mine = [e for e in events if e.get("job") == job.id]
            types = [e["type"] for e in mine]
            assert types.count("job.submitted") == 1
            assert types.count("job.settled") == 1
            settled = next(e for e in mine if e["type"] == "job.settled")
            assert settled.get("admitted", False) is job.admitted
            assert ("job.started" in types) is not job.admitted

    def test_admitted_trace_accounts_for_its_wall_time(self, service):
        settle(service.submit(schedule_request()))
        job = service.submit(schedule_request())
        assert job.admitted and job.trace_id is not None
        spans = {
            span["name"]: span for span in service.trace_spans(job.trace_id)
        }
        assert {"request", "admission", "store.get"} <= set(spans)
        assert "queue.wait" not in spans and "executor" not in spans
        root, admission = spans["request"], spans["admission"]
        assert admission["parent_id"] == root["span_id"]
        assert spans["store.get"]["parent_id"] == admission["span_id"]
        assert root["attrs"]["status"] == "done"
