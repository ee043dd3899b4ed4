"""End-to-end tests over a live localhost scheduling server.

Covers the acceptance criteria of the service PR: submissions over
HTTP yield schedules bit-identical to direct in-process scheduling
(100 of them, concurrently), and a server restarted onto the same
store directory serves them as cache hits without rescheduling.
"""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ServiceError
from repro.frontend.pipeline import compile_source
from repro.mii.analysis import compute_mii
from repro.schedulers.registry import make_scheduler
from repro.service import ArtifactStore, ServiceClient, ServiceServer
from repro.workloads.govindarajan import govindarajan_suite

DAXPY = """
    real a
    real x(1000), y(1000)
    do i = 1, 1000
      y(i) = y(i) + a * x(i)
    end do
"""


@pytest.fixture
def server(tmp_path):
    with ServiceServer(tmp_path / "store", workers=4) as live:
        yield live


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


def direct_schedule(graph, machine, scheduler="hrms"):
    analysis = compute_mii(graph, machine)
    return make_scheduler(scheduler).schedule(graph, machine, analysis)


class TestEndToEnd:
    def test_health_and_metrics(self, client):
        assert client.health()
        text = client.metrics()
        assert "hrms_queue_depth" in text
        assert "hrms_store_hit_rate" in text

    def test_keep_alive_responses_do_not_stall(self, server):
        """Each response leaves as one send: split header/body writes
        stall a keep-alive client ~40 ms per request (Nagle + delayed
        ACK), so ten requests would take ~400 ms instead of a few."""
        import http.client
        import time
        from urllib.parse import urlparse

        url = urlparse(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            began = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - began
        finally:
            conn.close()
        assert elapsed < 0.2, f"10 keep-alive GETs took {elapsed:.3f}s"

    def test_submit_poll_fetch_graph_job(self, client, gov_machine, gov_suite):
        loop = gov_suite[0]
        job_id = client.submit_graph(loop.graph, machine="govindarajan")
        record = client.wait(job_id, timeout=30)
        assert record["status"] == "done"
        result = record["result"]
        direct = direct_schedule(loop.graph, gov_machine)
        assert result["ii"] == direct.ii
        envelope = client.artifact(result["artifact"])
        assert envelope["schema"] == 1
        assert envelope["kind"] == "schedule"
        payload = envelope["payload"]
        assert payload["start"] == direct.start
        assert payload["maxlive"] == result["maxlive"]

    def test_submit_source_job(self, client, pc_machine):
        job_id = client.submit_source(DAXPY, name="daxpy")
        envelope = client.result(job_id, timeout=30)
        direct = direct_schedule(
            compile_source(DAXPY, name="daxpy").graph, pc_machine
        )
        assert envelope["payload"]["ii"] == direct.ii
        assert envelope["payload"]["start"] == direct.start

    def test_machine_over_the_wire(self, client, gov_machine, gov_suite):
        """A machine sent as a wire dict, not a registered name."""
        loop = gov_suite[1]
        job_id = client.submit_graph(loop.graph, machine=gov_machine)
        record = client.wait(job_id, timeout=30)
        assert record["status"] == "done"
        assert record["result"]["ii"] == direct_schedule(
            loop.graph, gov_machine
        ).ii

    def test_failed_job_captures_error(self, client):
        job_id = client.submit({"kind": "schedule", "source": "not a loop"})
        record = client.wait(job_id, timeout=30)
        assert record["status"] == "failed"
        assert record["error"]["type"] == "ParseError"
        with pytest.raises(ServiceError, match="ParseError"):
            client.result(job_id)

    @pytest.mark.parametrize(
        "operations",
        [
            [{"name": "a", "latency": 0}],
            [{"latency": 2}],
            [{"name": "a", "latency": "fast"}],
        ],
        ids=["zero-latency", "missing-name", "non-int-latency"],
    )
    def test_malformed_graph_fails_without_retry(self, client, operations):
        """A malformed graph is a permanent client error: one attempt."""
        job_id = client.submit(
            {"kind": "schedule", "graph": {"operations": operations}}
        )
        record = client.wait(job_id, timeout=30)
        assert record["status"] == "failed"
        assert record["error"]["type"] == "GraphError"
        assert record["attempts"] == 1

    def test_suite_job(self, client, gov_machine):
        job_id = client.submit(
            {"kind": "suite", "suite": "govindarajan", "n_loops": 5,
             "schedulers": ["hrms", "topdown"]}
        )
        envelope = client.result(job_id, timeout=60)
        loops = govindarajan_suite()[:5]
        assert [row["name"] for row in envelope["payload"]["loops"]] == [
            loop.name for loop in loops
        ]
        for loop, row in zip(loops, envelope["payload"]["loops"]):
            assert row["rows"]["hrms"]["ii"] == direct_schedule(
                loop.graph, gov_machine
            ).ii

    def test_batch_submission(self, client, gov_suite):
        requests = [
            {"kind": "schedule", "graph": _graph_dict(loop.graph),
             "machine": "govindarajan"}
            for loop in gov_suite[:4]
        ]
        ids = client.submit_batch(requests)
        assert len(ids) == 4
        for job_id in ids:
            assert client.wait(job_id, timeout=30)["status"] == "done"


def _graph_dict(graph):
    from repro.graph.serialization import graph_to_dict

    return graph_to_dict(graph)


class TestConcurrentAndWarmRestart:
    """The PR's acceptance criteria, verbatim."""

    def _submissions(self):
        """100 jobs over 48 distinct (graph, scheduler) requests."""
        graphs = [loop.graph for loop in govindarajan_suite()]  # 24
        pairs = [
            (graph, scheduler)
            for graph in graphs
            for scheduler in ("hrms", "topdown")
        ]
        work = (pairs * 3)[:100]
        assert len(work) == 100
        return work

    def test_100_concurrent_jobs_bit_identical_and_warm_restart(
        self, tmp_path, gov_machine
    ):
        work = self._submissions()
        expected = {}
        for graph, scheduler in work:
            key = (graph.name, scheduler)
            if key not in expected:
                schedule = direct_schedule(graph, gov_machine, scheduler)
                expected[key] = (schedule.ii, schedule.start)

        store_dir = tmp_path / "store"

        def run_round(server):
            client = ServiceClient(server.url)
            with ThreadPoolExecutor(max_workers=32) as pool:
                ids = list(
                    pool.map(
                        lambda item: client.submit_graph(
                            item[0],
                            machine="govindarajan",
                            scheduler=item[1],
                        ),
                        work,
                    )
                )
            records = [client.wait(job_id, timeout=120) for job_id in ids]
            envelopes = []
            for (graph, scheduler), record in zip(work, records):
                assert record["status"] == "done", record
                envelope = client.artifact(record["result"]["artifact"])
                payload = envelope["payload"]
                ii, start = expected[(graph.name, scheduler)]
                assert payload["ii"] == ii, (graph.name, scheduler)
                assert payload["start"] == start, (graph.name, scheduler)
                envelopes.append((record, payload))
            return envelopes

        # Round 1: cold store, 100 concurrent submissions over HTTP.
        with ServiceServer(store_dir, workers=4) as server:
            run_round(server)
            computed_cold = server.service.metrics.counter(
                "schedules_computed"
            )
            # 48 distinct (graph, scheduler) pairs; duplicates may race
            # but the store converges on identical bits either way.
            assert computed_cold >= 48

        # Round 2: a *new* server process-equivalent on the same store
        # must serve every job from the store without rescheduling.
        with ServiceServer(store_dir, workers=4) as server:
            records = run_round(server)
            assert all(record["result"]["cached"] for record, _ in records)
            assert server.service.metrics.counter("schedules_computed") == 0
            assert server.service.store.stats().writes == 0

    def test_restart_preserves_artifacts_on_disk(self, tmp_path, gov_suite):
        store_dir = tmp_path / "store"
        with ServiceServer(store_dir, workers=2) as server:
            client = ServiceClient(server.url)
            job_id = client.submit_graph(
                gov_suite[0].graph, machine="govindarajan"
            )
            key = client.wait(job_id, timeout=30)["result"]["artifact"]
        # Server gone; the artifact is plain JSON on disk.
        envelope = ArtifactStore(store_dir).get(key)
        assert envelope is not None and envelope["payload"]["ii"] >= 1


class TestInProcessService:
    """Behaviour easier to pin down without the HTTP hop."""

    def test_finished_jobs_evicted(self, tmp_path, gov_suite):
        from repro.service.api import SchedulingService

        service = SchedulingService(
            tmp_path / "store", workers=1, finished_jobs_kept=2
        ).start()
        try:
            jobs = [
                service.submit(
                    {
                        "kind": "schedule",
                        "graph": _graph_dict(loop.graph),
                        "machine": "govindarajan",
                    }
                )
                for loop in gov_suite[:5]
            ]
            deadline = 30
            import time as time_mod

            began = time_mod.monotonic()
            while service.metrics.counter("jobs_done") < 5:
                assert time_mod.monotonic() - began < deadline
                time_mod.sleep(0.01)
            assert len(service.jobs()) == 2, "old settled jobs must evict"
            assert service.job(jobs[0].id) is None
            assert service.job(jobs[-1].id) is not None
        finally:
            service.stop()

    def test_suite_alias_shares_artifact(self, tmp_path):
        from repro.service.executor import SchedulingExecutor
        from repro.service.store import ArtifactStore

        executor = SchedulingExecutor(ArtifactStore(tmp_path / "store"))
        first = executor.execute_request(
            "suite", {"suite": "perfect_club", "n_loops": 3}
        )
        second = executor.execute_request(
            "suite", {"suite": "perfectclub", "n_loops": 3}
        )
        assert second["artifact"] == first["artifact"]
        assert second["cached"] and not first["cached"]


class TestHttpErrors:
    def _raw(self, server, method, path, body=None):
        data = None if body is None else body.encode("utf-8")
        request = urllib.request.Request(
            server.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_unknown_job_404(self, server):
        code, body = self._raw(server, "GET", "/v1/jobs/nope")
        assert code == 404 and "error" in body

    def test_unknown_artifact_404(self, server):
        code, body = self._raw(server, "GET", "/v1/artifacts/" + "0" * 64)
        assert code == 404 and "error" in body

    def test_unknown_route_404(self, server):
        assert self._raw(server, "GET", "/v2/everything")[0] == 404

    def test_bad_json_400(self, server):
        code, body = self._raw(server, "POST", "/v1/jobs", "{not json")
        assert code == 400 and "JSON" in body["error"]

    def test_empty_body_400(self, server):
        assert self._raw(server, "POST", "/v1/jobs", "")[0] == 400

    def test_missing_graph_and_source_400(self, server):
        code, body = self._raw(
            server, "POST", "/v1/jobs", json.dumps({"kind": "schedule"})
        )
        assert code == 400 and "graph" in body["error"]

    def test_unknown_kind_400(self, server):
        code, body = self._raw(
            server, "POST", "/v1/jobs", json.dumps({"kind": "banana"})
        )
        assert code == 400 and "unknown job kind" in body["error"]

    def test_batch_is_all_or_nothing(self, server, client, gov_suite):
        """A bad control field mid-batch enqueues nothing (regression:
        pre-validation used to skip control fields)."""
        good = {
            "kind": "schedule",
            "graph": _graph_dict(gov_suite[0].graph),
            "machine": "govindarajan",
        }
        bad = dict(good, priority="high")
        code, body = self._raw(
            server, "POST", "/v1/batch", json.dumps({"jobs": [good, bad]})
        )
        assert code == 400 and "bad control field" in body["error"]
        assert server.service.metrics.counter("jobs_submitted") == 0
        assert server.service.jobs() == []

    def test_bad_content_length_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs", data=b"{}", method="POST",
            headers={"Content-Type": "application/json"},
        )
        request.add_unredirected_header("Content-Length", "abc")
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                code = resp.status
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 400

    def test_bad_batch_400(self, server):
        code, _ = self._raw(
            server, "POST", "/v1/batch", json.dumps({"jobs": []})
        )
        assert code == 400
        code, _ = self._raw(
            server, "POST", "/v1/batch",
            json.dumps({"jobs": [{"kind": "schedule"}]}),
        )
        assert code == 400

    def test_malformed_artifact_key_400(self, server):
        code, _ = self._raw(server, "GET", "/v1/artifacts/NOT-HEX")
        assert code == 400

    def test_bad_status_filter_400(self, server):
        code, _ = self._raw(server, "GET", "/v1/jobs?status=limbo")
        assert code == 400

    def test_jobs_listing(self, server, client, gov_suite):
        job_id = client.submit_graph(
            gov_suite[0].graph, machine="govindarajan"
        )
        client.wait(job_id, timeout=30)
        code, body = self._raw(server, "GET", "/v1/jobs")
        assert code == 200
        assert body["counts"].get("done", 0) >= 1
        assert any(job["id"] == job_id for job in body["jobs"])
        code, body = self._raw(server, "GET", "/v1/jobs?status=done")
        assert all(job["status"] == "done" for job in body["jobs"])


class TestBackpressureAndReadiness:
    """Bounded-queue shedding (429 + Retry-After) and the liveness /
    readiness split."""

    def _raw(self, url, method, path, body=None):
        data = None if body is None else body.encode("utf-8")
        request = urllib.request.Request(
            url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                return resp.status, dict(resp.headers), json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    @pytest.fixture
    def stalled(self, tmp_path, gov_suite):
        """A bounded service whose pool never starts: submissions stay
        queued, so the depth cap is hit deterministically."""
        import threading

        from repro.service import ExecutorConfig
        from repro.service.api import SchedulingService, make_server

        service = SchedulingService(
            tmp_path / "store",
            config=ExecutorConfig(workers=1, max_queue_depth=2),
        )
        httpd = make_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            yield f"http://{host}:{port}", service
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
            service.queue.close()

    def _submission(self, gov_suite):
        return json.dumps(
            {
                "kind": "schedule",
                "graph": _graph_dict(gov_suite[0].graph),
                "machine": "govindarajan",
            }
        )

    def test_full_queue_sheds_with_429(self, stalled, gov_suite):
        url, service = stalled
        body = self._submission(gov_suite)
        for _ in range(2):
            code, _, _ = self._raw(url, "POST", "/v1/jobs", body)
            assert code == 202
        code, headers, payload = self._raw(url, "POST", "/v1/jobs", body)
        assert code == 429
        assert headers.get("Retry-After") == "1"
        assert "full" in payload["error"]
        assert service.metrics.counter("jobs_rejected") == 1
        # The shed submission was never admitted.
        assert service.metrics.counter("jobs_submitted") == 2
        assert len(service.jobs()) == 2

    def test_unready_server_is_still_live(self, stalled):
        url, _ = stalled
        code, _, payload = self._raw(url, "GET", "/healthz")
        assert code == 200
        assert payload["live"] is True
        assert payload["ready"] is False
        assert "not running" in payload["reason"]
        code, _, payload = self._raw(url, "GET", "/readyz")
        assert code == 503
        assert payload["ready"] is False

    def test_readyz_200_on_healthy_server(self, server):
        import urllib.request as request_lib

        with request_lib.urlopen(server.url + "/readyz", timeout=10) as resp:
            assert resp.status == 200
            assert json.loads(resp.read())["ready"] is True

    def test_full_queue_flips_readiness(self, stalled, monkeypatch):
        url, service = stalled
        # With the pool faked as running, a saturated queue is what
        # makes the server unready.
        monkeypatch.setattr(
            type(service.pool), "started", property(lambda self: True)
        )
        ready, reason = service.readiness()
        assert ready
        from repro.service.jobs import Job

        service.queue.push(Job(kind="schedule", request={}))
        service.queue.push(Job(kind="schedule", request={}))
        ready, reason = service.readiness()
        assert not ready
        assert "full" in reason
        code, _, _ = self._raw(url, "GET", "/readyz")
        assert code == 503


class TestDeadlinesOverHttp:
    def test_job_timeout_settles_with_timeout_status(
        self, server, client, gov_suite
    ):
        """A deadline blown under injected scheduler latency must come
        back over HTTP as the distinct ``timeout`` status."""
        from repro.service import faults
        from repro.service.faults import FaultPlan, FaultRule

        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule("executor.latency", max_fires=1, delay_s=0.3),
            ),
        )
        with faults.injected(plan):
            job_id = client.submit_graph(
                gov_suite[0].graph,
                machine="govindarajan",
                timeout=0.05,
            )
            record = client.wait(job_id, timeout=30)
        assert record["status"] == "timeout"
        assert record["result"] is None
        assert record["error"]["type"] == "DeadlineExceededError"
        text = client.metrics()
        assert "hrms_jobs_timeout_total 1" in text

    def test_bad_timeout_rejected(self, server):
        import urllib.request as request_lib

        body = json.dumps(
            {"kind": "schedule", "source": DAXPY, "timeout": -1}
        ).encode("utf-8")
        request = request_lib.Request(
            server.url + "/v1/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            request_lib.urlopen(request, timeout=10)
        assert info.value.code == 400


class TestMetricsEndpoint:
    def test_counters_progress(self, client, gov_suite):
        job_id = client.submit_graph(
            gov_suite[0].graph, machine="govindarajan"
        )
        client.wait(job_id, timeout=30)
        text = client.metrics()
        metrics = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):  # HELP/TYPE headers
                continue
            name, value = line.rsplit(" ", 1)
            metrics[name] = float(value)
        assert metrics["hrms_jobs_submitted_total"] >= 1
        assert metrics["hrms_jobs_done_total"] >= 1
        assert metrics["hrms_schedules_computed_total"] >= 1
        assert metrics["hrms_store_writes"] >= 1
        assert 'hrms_job_latency_seconds{quantile="0.5"}' in metrics


class TestVerifyEndpoint:
    """POST /v1/verify: re-run the QA oracle battery on a stored
    schedule artifact."""

    def _schedule_job(self, client, graph):
        from repro.graph.serialization import graph_to_dict

        job_id = client.submit(
            {
                "kind": "schedule",
                "graph": graph_to_dict(graph),
                "machine": "govindarajan",
            }
        )
        record = client.wait(job_id)
        assert record["status"] == "done"
        return record["result"]["artifact"]

    def test_verify_stored_schedule(self, client, gov_suite):
        graph = gov_suite[0].graph
        key = self._schedule_job(client, graph)
        report = client.verify(key, graph)
        assert report["ok"] is True
        assert report["artifact"] == key
        assert report["artifact_kind"] == "schedule"
        oracles = {check["oracle"] for check in report["checks"]}
        assert oracles == {"legal", "ii-bounds", "sim-reads", "sim-maxlive"}
        assert all(check["ok"] for check in report["checks"])

    def test_verify_portfolio_artifact(self, client, gov_suite):
        from repro.graph.serialization import graph_to_dict

        graph = gov_suite[0].graph
        job_id = client.submit(
            {
                "kind": "schedule",
                "graph": graph_to_dict(graph),
                "machine": "govindarajan",
                "scheduler": "portfolio",
                "members": ["hrms", "topdown"],
            }
        )
        record = client.wait(job_id, timeout=120)
        assert record["status"] == "done"
        key = record["result"]["artifact"]
        report = client.verify(key, graph)
        assert report["ok"] is True
        assert report["artifact_kind"] == "portfolio"

    def test_verify_unknown_artifact_404(self, client, gov_suite):
        with pytest.raises(ServiceError, match="404"):
            client.verify("ab" * 32, gov_suite[0].graph)

    def test_verify_wrong_graph_rejected(self, client, gov_suite):
        key = self._schedule_job(client, gov_suite[0].graph)
        with pytest.raises(ServiceError, match="digest"):
            client.verify(key, gov_suite[1].graph)

    def test_verify_requires_graph(self, client, gov_suite):
        key = self._schedule_job(client, gov_suite[0].graph)
        with pytest.raises(ServiceError, match="graph"):
            client._call("POST", "/v1/verify", {"artifact": key})

    def test_verify_malformed_graph_is_a_client_error(
        self, client, gov_suite
    ):
        key = self._schedule_job(client, gov_suite[0].graph)
        bad = {"operations": [{"name": "a"}], "edges": [{"src": "a"}]}
        with pytest.raises(ServiceError, match="400"):
            client.verify(key, bad)

    def test_verify_empty_graph_is_a_client_error(self, client, gov_suite):
        key = self._schedule_job(client, gov_suite[0].graph)
        with pytest.raises(ServiceError, match="400.*at least one operation"):
            client.verify(key, {"operations": []})

    def test_empty_graph_job_fails_once_with_graph_error(self, client):
        job_id = client.submit(
            {"kind": "schedule", "graph": {"operations": []}}
        )
        record = client.wait(job_id)
        assert record["status"] == "failed"
        assert record["attempts"] == 1
        assert record["error"]["type"] == "GraphError"

    def test_verify_requires_artifact(self, client):
        with pytest.raises(ServiceError, match="artifact"):
            client._call("POST", "/v1/verify", {"graph": {}})

    def test_verify_rejects_suite_artifacts(self, client):
        job_id = client.submit(
            {"kind": "suite", "suite": "govindarajan", "n_loops": 2}
        )
        record = client.wait(job_id, timeout=120)
        assert record["status"] == "done"
        key = record["result"]["artifact"]
        with pytest.raises(ServiceError, match="kind"):
            client.verify(key, {})
