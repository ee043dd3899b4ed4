"""Closed-loop HTTP client.

``requesters`` threads share one request stream.  Each takes the next
request, sends ``POST /v1/jobs``, polls ``GET /v1/jobs/<id>`` every
``poll_s`` seconds until the job settles, and only then takes another.
Latency is client-side: from just before the submit to the poll
response that shows the job settled.  Every HTTP exchange uses its own
connection, like the shipped ``repro.service.client.ServiceClient``.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
from dataclasses import dataclass

#: Settled job states (``repro.service.jobs.JobStatus.SETTLED``).
SETTLED = ("done", "failed", "timeout")

#: ``SO_LINGER`` on, zero seconds: close() resets instead of lingering.
_NO_LINGER = struct.pack("ii", 1, 0)


@dataclass
class Outcome:
    """What the client saw for one request."""

    index: int
    #: ``done``, ``failed``, ``timeout`` (server states), ``refused``
    #: (submit not accepted), ``lost`` (never settled) or ``transport``.
    status: str
    latency_s: float
    #: The final job record (``GET /v1/jobs/<id>``), when one was read.
    record: dict | None = None
    error: str | None = None

    @property
    def result(self) -> dict | None:
        return self.record.get("result") if self.record else None


def request_json(
    host: str, port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, dict | None]:
    """One HTTP exchange on its own connection, as the shipped
    ``ServiceClient`` (urllib, ``Connection: close``) makes it.

    A keep-alive client would instead wait out the server's two-write
    responses (headers, then body) against delayed ACKs, about 40 ms
    per response on Linux, which no shipped client sees.

    The socket closes with a zero linger (a reset), so the thousands of
    poll connections a run makes leave no TIME_WAIT entries behind:
    those would fill the ephemeral port range within a minute and slow
    every later connect.
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    data = None if body is None else json.dumps(body).encode()
    headers = {"Connection": "close"}
    if data is not None:
        headers["Content-Type"] = "application/json"
    try:
        conn.connect()
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _NO_LINGER)
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        payload = response.read()
    finally:
        conn.close()
    return response.status, json.loads(payload) if payload else None


def drive(
    host: str,
    port: int,
    requests: list[dict],
    *,
    requesters: int,
    poll_s: float,
    timeout_s: float,
) -> tuple[list[Outcome], float]:
    """Send every request through the closed loop.

    Returns the outcomes in request order and the wall time of the
    measured phase (first submit to last settle).
    """
    outcomes: list[Outcome | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def requester() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcomes[index] = _one(index, requests[index])

    def _one(index: int, body: dict) -> Outcome:
        began = time.perf_counter()
        try:
            status, accepted = request_json(host, port, "POST", "/v1/jobs", body)
            if status != 202:
                return Outcome(
                    index, "refused", time.perf_counter() - began,
                    error=f"HTTP {status}",
                )
            path = f"/v1/jobs/{accepted['id']}"
            while True:
                status, record = request_json(host, port, "GET", path)
                now = time.perf_counter()
                if status == 200 and record["status"] in SETTLED:
                    error = record.get("error") or {}
                    return Outcome(
                        index, record["status"], now - began, record,
                        error=error.get("type"),
                    )
                if now - began > timeout_s:
                    return Outcome(
                        index, "lost", now - began, record,
                        error="ClientTimeout",
                    )
                time.sleep(poll_s)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return Outcome(
                index, "transport", time.perf_counter() - began,
                error=type(exc).__name__,
            )

    threads = [
        threading.Thread(target=requester, name=f"requester-{i}")
        for i in range(requesters)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    return [outcome for outcome in outcomes if outcome is not None], wall
