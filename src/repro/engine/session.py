"""Per-(graph, machine) scheduling sessions.

A :class:`SchedulingSession` is the engine's unit of reuse: one object
per (graph, machine) pair owning everything the II search derives from
that pair — the MII analysis (computed once, shared), the MinDist
matrices (one :func:`~repro.engine.mindist.closure` per II, memoized),
and the per-attempt scratch structures (StartBounds, the modulo
reservation table) that used to be rebuilt from scratch inside every
attempt.

The split of responsibilities is deliberate:

* **session-wide, lock-guarded** — the MII analysis and the MinDist
  memo.  Portfolio members race the same loop from several threads;
  they share one analysis and one set of matrices.
* **per-thread scratch** — StartBounds and MRT instances.  Both are
  mutated during an attempt, so concurrent searches must never share
  one; each thread keeps its latest and resets it in place when the
  next attempt asks for the same II/matrix.  The placement ladder's
  per-order plan (:meth:`SchedulingSession.order_plan`) is kept the
  same way.

:class:`SessionCache` maps (graph fingerprint digest, machine wire
form) onto live sessions with LRU eviction — the service executor keys
every request through one, which is what turns a ``POST /v1/batch`` of
same-graph requests into one shared MII analysis and one shared
MinDist memo across scheduler members and portfolio races.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from repro.engine.mindist import closure, factorise, fingerprint_digest
from repro.engine.windows import StartBounds, cyclic_frame
from repro.graph.ddg import DependenceGraph
from repro.machine.machine import MachineModel
from repro.machine.mrt import ModuloReservationTable
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mii.analysis import MIIResult

#: Live sessions the shared process-wide cache keeps.
_DEFAULT_MAX_SESSIONS = 64

#: MinDist matrices a session memoizes (HRMS's second directional pass
#: and a lagging portfolio member re-hit recent IIs).
_MINDIST_MEMO_ENTRIES = 8

#: Memo-miss sentinel (``None`` is a valid memo value: infeasible II).
_MISSING = object()

_Plan = TypeVar("_Plan")


class SchedulingSession:
    """All derived scheduling state for one (graph, machine) pair."""

    def __init__(
        self,
        graph: DependenceGraph,
        machine: MachineModel,
        analysis: "MIIResult | None" = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self._analysis = analysis
        self._analysis_lock = threading.Lock()
        self._mindist_lock = threading.RLock()
        #: The graph ``version`` every derived field below describes.
        self._version = graph.version
        self._factors = None
        #: II -> (dist, names) | None, LRU oldest-first.
        self._memo: "OrderedDict[int, tuple[np.ndarray, list[str]] | None]" = (
            OrderedDict()
        )
        self._fresh_solves = 0
        self._memo_hits = 0
        self._digest: str | None = None
        self._scratch = threading.local()

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Drop everything derived from the graph once its O(1)
        ``version`` has moved (an operation or edge was added or
        removed since it was derived)."""
        if self.graph.version == self._version:
            return
        with self._mindist_lock:
            if self.graph.version == self._version:
                return
            self._analysis = None
            self._digest = None
            self._factors = None
            self._memo.clear()
            self._version = self.graph.version

    @property
    def analysis(self) -> "MIIResult":
        """The MII analysis, computed once per graph version and shared."""
        self._sync()
        with self._analysis_lock:
            if self._analysis is None:
                from repro.mii.analysis import compute_mii

                self._analysis = compute_mii(self.graph, self.machine)
            return self._analysis

    @property
    def digest(self) -> str:
        """Content address of the session's graph (wire/cache key)."""
        self._sync()
        if self._digest is None:
            self._digest = fingerprint_digest(self.graph)
        return self._digest

    # ------------------------------------------------------------------
    def mindist(self, ii: int) -> tuple[np.ndarray, list[str]] | None:
        """MinDist at *ii* as ``(dist, names)``, read-only and shared, or
        ``None`` if *ii* is infeasible.

        One :func:`~repro.engine.mindist.closure` per II, memoized.  A
        graph mutated since the last call (its O(1) ``version`` moved)
        is factorised afresh and the memo dropped.
        """
        with self._mindist_lock:
            self._sync()
            if self._factors is None:
                self._factors = factorise(self.graph)
            cached = self._memo.get(ii, _MISSING)
            if cached is not _MISSING:
                self._memo_hits += 1
                self._memo.move_to_end(ii)
                return cached
            self._fresh_solves += 1
            factors = self._factors
            if trace.ACTIVE is None:
                dist = closure(factors, ii)
            else:
                with trace.span(
                    "mindist.solve", ii=ii, ops=len(factors.names)
                ):
                    dist = closure(factors, ii)
            result = None if dist is None else (dist, factors.names)
            self._memo[ii] = result
            if len(self._memo) > _MINDIST_MEMO_ENTRIES:
                self._memo.popitem(last=False)
            return result

    def cyclic_asap(self, ii: int) -> dict[str, int] | None:
        """Cyclic-ASAP row of the MinDist matrix (fresh dict per call)."""
        solved = self.mindist(ii)
        if solved is None:
            return None
        dist, names = solved
        asap, _ = cyclic_frame(dist, self.graph.indexed().latencies)
        return {name: int(asap[i]) for i, name in enumerate(names)}

    def start_bounds(self, ii: int) -> StartBounds | None:
        """A clean :class:`StartBounds` over the matrix at *ii*.

        Reuses this thread's previous instance (reset in place) when it
        was built over the *same* matrix — the common case of a
        scheduler's several placement passes at one II.
        """
        solved = self.mindist(ii)
        if solved is None:
            return None
        dist, _ = solved
        cached: StartBounds | None = getattr(
            self._scratch, "bounds", None
        )
        if cached is not None and cached.dist is dist:
            cached.reset()
            return cached
        bounds = StartBounds(dist)
        self._scratch.bounds = bounds
        return bounds

    def mrt(self, ii: int) -> ModuloReservationTable:
        """A clean reservation table at *ii* (per-thread, reset reuse)."""
        cached: ModuloReservationTable | None = getattr(
            self._scratch, "mrt", None
        )
        if cached is not None and cached.ii == ii:
            cached.reset()
            return cached
        mrt = ModuloReservationTable(self.machine, ii)
        self._scratch.mrt = mrt
        return mrt

    def order_plan(
        self,
        order: list[str],
        build: Callable[[DependenceGraph, list[str]], _Plan],
    ) -> _Plan:
        """``build(graph, order)``, kept per thread while *order*,
        *build* and the graph version stay the same (an II search places
        one order at every II it tries)."""
        key = (self.graph.version, build)
        cached = getattr(self._scratch, "plan", None)
        if cached is not None and cached[0] == key and cached[1] == order:
            return cached[2]
        plan = build(self.graph, order)
        self._scratch.plan = (key, list(order), plan)
        return plan

    def sweep_stats(self) -> dict[str, int]:
        """MinDist counters: ``fresh_solves`` (one ``closure`` each)
        and ``memo_hits`` (perf tiers, QA assertions)."""
        return {
            "fresh_solves": self._fresh_solves,
            "memo_hits": self._memo_hits,
        }


def _machine_key(machine: MachineModel) -> str:
    return json.dumps(
        machine.to_dict(), separators=(",", ":"), sort_keys=True
    )


class SessionCache:
    """LRU of live sessions keyed by (graph digest, machine wire form).

    Two equivalent graphs (equal fingerprints) share one session even
    when they are distinct objects — matrix row order is part of the
    fingerprint, so every derived structure transfers.
    """

    def __init__(self, max_sessions: int = _DEFAULT_MAX_SESSIONS) -> None:
        self._max_sessions = max(1, max_sessions)
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[tuple[str, str], SchedulingSession]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def get(
        self,
        graph: DependenceGraph,
        machine: MachineModel,
        analysis: "MIIResult | None" = None,
        *,
        digest: str | None = None,
    ) -> SchedulingSession:
        """The session for (graph, machine), created on first use.

        ``digest`` lets callers that already content-addressed the
        graph (the executor's cache keys) skip re-fingerprinting.
        """
        if digest is None:
            digest = fingerprint_digest(graph)
        key = (digest, _machine_key(machine))
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.hits += 1
                self._sessions.move_to_end(key)
                return session
            self.misses += 1
            session = SchedulingSession(graph, machine, analysis)
            session._digest = digest
            self._sessions[key] = session
            while len(self._sessions) > self._max_sessions:
                self._sessions.popitem(last=False)
            return session

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "sessions": len(self._sessions),
            }

    def clear(self) -> None:
        with self._lock:
            self._sessions.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide cache for callers outside the service (the QA oracle
#: battery, ad-hoc library use) that want MII/matrix dedup for free.
_SHARED_SESSIONS = SessionCache()


def session_for(
    graph: DependenceGraph,
    machine: MachineModel,
    analysis: "MIIResult | None" = None,
) -> SchedulingSession:
    """The process-wide shared session for (graph, machine)."""
    return _SHARED_SESSIONS.get(graph, machine, analysis)


def shared_session_cache() -> SessionCache:
    """The process-wide session cache itself (tests, diagnostics)."""
    return _SHARED_SESSIONS
