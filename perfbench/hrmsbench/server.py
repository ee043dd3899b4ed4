"""A stock ``hrms-serve`` process with shipped defaults.

The server runs ``repro.service.cli.serve_main`` from the checkout's
``src`` in its own interpreter: thread backend, tracing as shipped, an
ephemeral port and a fresh store directory.  ``start`` returns the
set-up time, from spawning the process to its first healthy
``/healthz``.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import ROOT

_BOOT = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from repro.service.cli import serve_main; "
    "sys.exit(serve_main(sys.argv[1:]))"
)

#: Seconds a server gets to come up, and to shut down after SIGTERM.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server did not start, answer, or stop as expected."""


class Server:
    """One ``hrms-serve`` child process."""

    def __init__(self, store: Path, workers: int, log: Path) -> None:
        self.store = store
        self.workers = workers
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Spawn the server; return seconds until ``/healthz`` is healthy."""
        began = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-c", _BOOT, str(ROOT / "src"),
                    "--store", str(self.store),
                    "--host", self.host,
                    "--port", "0",
                    "--workers", str(self.workers),
                    "--backend", "thread",
                ],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        self.port = self._read_port(began + START_TIMEOUT_S)
        while True:
            if self._healthy():
                return time.perf_counter() - began
            if time.perf_counter() > began + START_TIMEOUT_S:
                raise ServerError("server never reported healthy")
            time.sleep(0.002)

    def _read_port(self, deadline: float) -> int:
        """Parse the port from the server's ``listening on <url>`` line."""
        stdout = self.proc.stdout
        buffered = b""
        while True:
            *lines, _ = buffered.split(b"\n")
            for line in lines:
                text = line.decode(errors="replace")
                if "listening on" in text:
                    url = text.split("listening on", 1)[1].split()[0]
                    return int(url.rsplit(":", 1)[1].rstrip("/"))
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise ServerError(
                    f"server did not start (see {self.log}): "
                    f"{buffered.decode(errors='replace')!r}"
                )
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                buffered += os.read(stdout.fileno(), 4096)

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            return response.status == 200 and json.loads(body).get("ok")
        except (OSError, http.client.HTTPException, ValueError):
            return False
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM, wait, and kill if the orderly shutdown stalls."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
