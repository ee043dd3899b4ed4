"""Stdlib HTTP client for the scheduling service.

``urllib.request`` only — usable from the ``hrms-submit`` CLI, the
examples and plain scripts without any dependency.  The client speaks
the JSON API of :mod:`repro.service.api` and adds the two conveniences
every caller wants: building a request dict from in-memory objects
(:meth:`ServiceClient.submit_graph` / :meth:`submit_source`) and
blocking until a job settles (:meth:`wait` / :meth:`result`).

Resilience: every request carries a *connect* timeout (fail fast when
the host is gone) and a *read* timeout (an accepted-but-silent server
cannot hang the caller), plus a small retry budget — idempotent GETs
retry on transport failures and 5xx, any method retries on connection
refusal (nothing was sent) and on 429 backpressure (the server
rejected the work, honouring its ``Retry-After`` hint).
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict

from repro.errors import ServiceError
from repro.graph.ddg import DependenceGraph
from repro.graph.serialization import graph_to_dict
from repro.machine.machine import MachineModel
from repro.service.jobs import JobStatus

#: Default per-request read timeout (seconds).
DEFAULT_TIMEOUT = 30.0

#: Default connection-establishment timeout (seconds) — much tighter
#: than the read timeout: connects either succeed fast or never.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Default retry budget (attempts beyond the first).
DEFAULT_RETRIES = 2

#: Settled records from admission 202s a client keeps for :meth:`wait`
#: (oldest dropped first; a dropped one costs one ``GET``).
SETTLED_RECORDS_KEPT = 256


class _SplitTimeoutConnection(http.client.HTTPConnection):
    """An HTTPConnection whose socket switches from the connect timeout
    (``self.timeout``, applied by the stdlib during connect) to the
    read timeout once the connection is up."""

    def __init__(self, *args, read_timeout: float | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._read_timeout = read_timeout

    def connect(self) -> None:
        super().connect()
        if self._read_timeout is not None:
            self.sock.settimeout(self._read_timeout)


class _SplitTimeoutHandler(urllib.request.HTTPHandler):
    """Opens plain-HTTP requests through :class:`_SplitTimeoutConnection`."""

    def __init__(self, read_timeout: float | None) -> None:
        super().__init__()
        self._read_timeout = read_timeout

    def http_open(self, req):
        return self.do_open(
            functools.partial(
                _SplitTimeoutConnection, read_timeout=self._read_timeout
            ),
            req,
        )


class ServiceClient:
    """Talk to a running scheduling service over HTTP."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        connect_timeout: float | None = None,
        retries: int = DEFAULT_RETRIES,
        retry_backoff: float = 0.1,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # Never wait longer to connect than we would to read.
        self.connect_timeout = min(
            timeout,
            connect_timeout
            if connect_timeout is not None
            else DEFAULT_CONNECT_TIMEOUT,
        )
        self.retries = max(0, retries)
        self.retry_backoff = retry_backoff
        self._opener = urllib.request.build_opener(
            _SplitTimeoutHandler(read_timeout=timeout)
        )
        #: Job id -> the settled record an admission 202 carried.
        self._settled: OrderedDict[str, dict] = OrderedDict()
        self._settled_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        expect: str = "json",
    ):
        """One logical request (with the retry budget applied); every
        failure surfaces as a clear :class:`~repro.errors.ServiceError`.

        ``expect="json"`` (everything but ``/metrics``) parses and
        returns the JSON body; a non-JSON content type or an
        unparseable body — a proxy error page, a wrong port, a
        truncated response — raises instead of leaking a raw
        ``TypeError``/``JSONDecodeError`` traceback to the caller.
        ``expect="text"`` returns the decoded body as-is.
        """
        last: ServiceError | None = None
        for attempt in range(self.retries + 1):
            try:
                return self._call_once(method, path, body, expect=expect)
            except ServiceError as exc:
                last = exc
                if attempt >= self.retries or not getattr(
                    exc, "retryable", False
                ):
                    raise
                hinted = getattr(exc, "retry_after", None)
                delay = (
                    hinted
                    if hinted is not None
                    else self.retry_backoff * 2**attempt
                )
                time.sleep(delay)
        raise last  # pragma: no cover - loop always returns or raises

    @staticmethod
    def _retryable(exc: ServiceError, retry_after: float | None = None):
        """Tag *exc* for the retry loop and return it."""
        exc.retryable = True
        exc.retry_after = retry_after
        return exc

    def _call_once(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        expect: str = "json",
    ):
        """One HTTP round-trip (no retries)."""
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with self._opener.open(
                request, timeout=self.connect_timeout
            ) as resp:
                raw = resp.read()
                kind = resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            retry_after = exc.headers.get("Retry-After")
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            error = ServiceError(
                f"{method} {path} failed with HTTP {exc.code}: {detail}"
            )
            if exc.code == 429:
                # Backpressure: nothing was accepted — safe for any
                # method, and the server told us how long to back off.
                try:
                    hinted = float(retry_after) if retry_after else None
                except ValueError:
                    hinted = None
                self._retryable(error, retry_after=hinted)
            elif exc.code >= 500 and method == "GET":
                self._retryable(error)
            raise error from exc
        except urllib.error.URLError as exc:
            error = ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason} "
                "(is hrms-serve running there?)"
            )
            if method == "GET" or isinstance(
                exc.reason, ConnectionRefusedError
            ):
                # GETs are idempotent; a refused connection never
                # delivered the request, so any method may retry it.
                self._retryable(error)
            raise error from exc
        except (http.client.HTTPException, OSError) as exc:
            # Truncated bodies (IncompleteRead), protocol violations,
            # timeouts mid-read, connection resets, …
            error = ServiceError(
                f"{method} {path} to {self.base_url} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            if method == "GET":
                self._retryable(error)
            raise error from exc
        if expect == "text":
            return raw.decode("utf-8", "replace")
        if not kind.startswith("application/json"):
            raise ServiceError(
                f"{method} {path} returned a non-JSON response "
                f"(Content-Type {kind or 'missing'!r}) — is "
                f"{self.base_url} really an hrms scheduling service?"
            )
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{method} {path} returned an unparseable JSON body "
                f"({exc}) — is {self.base_url} really an hrms "
                "scheduling service?"
            ) from exc

    # ------------------------------------------------------------------
    def health(self) -> bool:
        """``True`` when the server answers its liveness probe."""
        try:
            return bool(self._call("GET", "/healthz").get("ok"))
        except ServiceError:
            return False

    def metrics(self) -> str:
        """The raw Prometheus text from ``/metrics``."""
        return self._call("GET", "/metrics", expect="text")

    # ------------------------------------------------------------------
    def schedulers(self) -> list[dict]:
        """The server's scheduler catalog (name + exact/virtual flags).

        Clients should discover scheduler names here instead of
        hardcoding them; the ``hrms-submit`` CLI validates its
        ``--scheduler`` argument against this list.
        """
        return self._call("GET", "/v1/schedulers")["schedulers"]

    def scheduler_names(self) -> list[str]:
        """Just the names from :meth:`schedulers`."""
        return [entry["name"] for entry in self.schedulers()]

    # ------------------------------------------------------------------
    def submit(self, request: dict) -> str:
        """Submit one raw job request; returns the job id."""
        return self.submit_record(request)["id"]

    def submit_record(self, request: dict) -> dict:
        """Submit one raw job request and return the full acceptance
        record — ``{"id", "status"}`` plus ``"trace"`` (the end-to-end
        trace id) when the server has tracing armed.  A request answered
        at admission comes back as its whole settled job record, which
        the next :meth:`wait` for it returns without a ``GET``."""
        record = self._call("POST", "/v1/jobs", request)
        if record.get("status") in JobStatus.SETTLED and "result" in record:
            with self._settled_lock:
                self._settled[record["id"]] = record
                while len(self._settled) > SETTLED_RECORDS_KEPT:
                    self._settled.popitem(last=False)
        return record

    def submit_batch(self, requests: list[dict]) -> list[str]:
        """Submit a suite of requests; returns the job ids in order."""
        return self._call("POST", "/v1/batch", {"jobs": requests})["ids"]

    def submit_graph(
        self,
        graph: DependenceGraph,
        *,
        machine: MachineModel | dict | str | None = None,
        scheduler: str = "hrms",
        priority: int = 0,
        **options,
    ) -> str:
        """Serialise *graph* and submit a schedule job for it."""
        request: dict = {
            "kind": "schedule",
            "graph": graph_to_dict(graph),
            "scheduler": scheduler,
            "priority": priority,
            **options,
        }
        if machine is not None:
            request["machine"] = (
                machine.to_dict()
                if isinstance(machine, MachineModel)
                else machine
            )
        return self.submit(request)

    def submit_source(
        self,
        source: str,
        *,
        name: str = "loop",
        profile: str | None = None,
        machine: MachineModel | dict | str | None = None,
        scheduler: str = "hrms",
        priority: int = 0,
        **options,
    ) -> str:
        """Submit loop-language *source* to be compiled and scheduled."""
        request: dict = {
            "kind": "schedule",
            "source": source,
            "name": name,
            "scheduler": scheduler,
            "priority": priority,
            **options,
        }
        if profile is not None:
            request["profile"] = profile
        if machine is not None:
            request["machine"] = (
                machine.to_dict()
                if isinstance(machine, MachineModel)
                else machine
            )
        return self.submit(request)

    # ------------------------------------------------------------------
    def job(self, job_id: str) -> dict:
        """The full job record (status, result, error)."""
        return self._call("GET", f"/v1/jobs/{job_id}")

    def wait(
        self, job_id: str, *, timeout: float = 60.0, poll: float = 0.02
    ) -> dict:
        """Poll until the job settles; returns the final record (the
        one its admission 202 carried, when it settled at submit)."""
        with self._settled_lock:
            record = self._settled.pop(job_id, None)
        if record is not None:
            return record
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in JobStatus.SETTLED:
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['status']} after {timeout}s"
                )
            time.sleep(poll)

    def artifact(self, key: str) -> dict:
        """The stored JSON envelope for *key*."""
        return self._call("GET", f"/v1/artifacts/{key}")

    def stats(
        self,
        group_by: list[str] | None = None,
        measures: list[str] | None = None,
    ) -> dict:
        """Query the server's semantic stats layer (``GET /v1/stats``)."""
        query = []
        if group_by:
            query.append("group_by=" + ",".join(group_by))
        if measures:
            query.append("measures=" + ",".join(measures))
        path = "/v1/stats" + ("?" + "&".join(query) if query else "")
        return self._call("GET", path)

    def trace(self, trace_id: str) -> list[dict]:
        """The finished spans of *trace_id* (``GET /v1/traces/<id>``)."""
        return self._call("GET", f"/v1/traces/{trace_id}")["spans"]

    def verify(self, key: str, graph: DependenceGraph | dict) -> dict:
        """Re-verify a stored schedule artifact (``POST /v1/verify``).

        *graph* is the dependence graph the artifact was computed for
        (artifacts carry only its digest); pass either the in-memory
        graph or its serialized dict.  Returns the oracle report:
        ``{"ok": bool, "checks": [{"oracle", "ok", "detail"}, …], …}``.
        """
        serialized = (
            graph_to_dict(graph)
            if isinstance(graph, DependenceGraph)
            else graph
        )
        return self._call(
            "POST", "/v1/verify", {"artifact": key, "graph": serialized}
        )

    def result(self, job_id: str, *, timeout: float = 60.0) -> dict:
        """Wait for *job_id* and return its artifact envelope.

        A failed job raises :class:`ServiceError` carrying the captured
        error, so callers never mistake a failure for an empty result.
        """
        record = self.wait(job_id, timeout=timeout)
        if record["status"] != JobStatus.DONE:
            error = record.get("error") or {}
            raise ServiceError(
                f"job {job_id} {record['status']}: "
                f"{error.get('type', 'Error')}: "
                f"{error.get('message', 'unknown error')}"
            )
        return self.artifact(record["result"]["artifact"])
