"""Per-layer attribution by wrapping the program's public functions.

:class:`LayerTracer` replaces each layer's entry points *where their
callers look them up* (module globals, class attributes) with timing
wrappers, and restores the originals on exit.  Every wrapped call is a
span on a thread-local stack: its self time is its duration minus the
durations of the spans nested inside it on the same thread.  Portfolio
members race on their own threads, so their spans are roots of their
thread's stack, and ``portfolio.race`` self time includes waiting for
them.

Layer names (and the callables behind them) are the contract later
in-program spans should reuse; see ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import itertools
import shutil
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from . import WORK_DIR

#: Root span: one ``SchedulingExecutor.execute_request`` call.
ROOT_LAYER = "service.executor"

#: Every layer, in request-path order.
LAYERS = (
    ROOT_LAYER,
    "frontend.compile",
    "graph.decode",
    "engine.fingerprint",
    "service.store.get",
    "mii.circuits",
    "mii.resmii",
    "mii.recmii",
    "mii.subgraphs",
    "core.ordering",
    "schedulers.attempt",
    "engine.mindist",
    "engine.bounds",
    "machine.mrt",
    "schedule.maxlive",
    "service.payload",
    "service.store.put",
    "portfolio.race",
)

#: Layer groups the acceptance checks and the README talk about.
PLACEMENT_GROUP = (
    "machine.mrt",
    "engine.bounds",
    "engine.mindist",
    "schedulers.attempt",
)
MII_GROUP = ("mii.circuits", "mii.resmii", "mii.recmii", "mii.subgraphs")
FRONT_GROUP = (
    "frontend.compile",
    "service.store.get",
    "service.store.put",
    "engine.fingerprint",
)

Observer = Callable[["_ThreadState", Any, tuple], None]


class _ThreadState:
    """One thread's span stack and accumulators (merged on read)."""

    __slots__ = ("stack", "layers", "counts")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.layers: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _count_circuits(state: _ThreadState, result: Any, args: tuple) -> None:
    state.bump("mii.circuits.found", len(result))


def _count_useful(state: _ThreadState, result: Any, args: tuple) -> None:
    if result is not None:
        state.bump("schedulers.attempt.ok")


def _count_scan_fail(state: _ThreadState, result: Any, args: tuple) -> None:
    if result is None:
        state.bump("machine.mrt.none")


class LayerTracer:
    """Self time and call counts per layer, plus a few layer counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        # MinDist sweep counters live on each SchedulingSession; sessions
        # a request touched are harvested after it (before the executor's
        # session LRU can drop them).
        self._touched: set = set()
        self._session_keys: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        self._key_seq = itertools.count()
        self._sweeps: dict[int, dict[str, int]] = {}

    # -- spans ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(
        self, layer: str, fn: Callable, observe: Observer | None = None
    ) -> Callable:
        """*fn* with every call recorded as one span of *layer*."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = state.layers.get(layer)
                if entry is None:
                    entry = state.layers[layer] = [0.0, 0]
                entry[0] += elapsed - frame[0]
                entry[1] += 1
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(state, result, args)
            return result

        return traced

    def call(self, layer: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as one span of *layer*."""
        return self.wrap(layer, fn)(*args)

    # -- MinDist sweep counters ----------------------------------------
    def _note_session(
        self, state: _ThreadState, result: Any, args: tuple
    ) -> None:
        with self._lock:
            self._touched.add(args[0])

    def harvest(self) -> None:
        """Snapshot the sweep counters of every session touched since
        the last harvest (call after each root request)."""
        with self._lock:
            touched, self._touched = self._touched, set()
        for session in touched:
            key = self._session_keys.get(session)
            if key is None:
                key = self._session_keys[session] = next(self._key_seq)
            self._sweeps[key] = session.sweep_stats()

    # -- install / restore ---------------------------------------------
    def _targets(self) -> list[tuple[object, str, str, Observer | None]]:
        import repro.frontend.pipeline as pipeline
        import repro.mii.analysis as analysis
        import repro.portfolio as portfolio
        import repro.service.executor as executor
        from repro.engine.session import SchedulingSession
        from repro.engine.windows import StartBounds
        from repro.machine.mrt import ModuloReservationTable
        from repro.service.store import ArtifactStore

        targets: list[tuple[object, str, str, Observer | None]] = [
            (pipeline, "compile_source", "frontend.compile", None),
            (executor, "graph_from_dict", "graph.decode", None),
            (executor, "fingerprint_digest", "engine.fingerprint", None),
            (ArtifactStore, "get", "service.store.get", None),
            (ArtifactStore, "put", "service.store.put", None),
            (analysis, "elementary_circuits", "mii.circuits", _count_circuits),
            (analysis, "compute_resmii", "mii.resmii", None),
            (analysis, "compute_recmii", "mii.recmii", None),
            (analysis, "find_recurrence_subgraphs", "mii.subgraphs", None),
            (SchedulingSession, "mindist", "engine.mindist", self._note_session),
            (StartBounds, "place", "engine.bounds", None),
            (ModuloReservationTable, "scan_place", "machine.mrt", _count_scan_fail),
            (executor, "max_live", "schedule.maxlive", None),
            (executor, "schedule_payload", "service.payload", None),
            (portfolio, "race_portfolio", "portfolio.race", None),
        ]
        for cls in scheduler_classes():
            if "prepare" in vars(cls):
                targets.append((cls, "prepare", "core.ordering", None))
            if "attempt" in vars(cls):
                targets.append(
                    (cls, "attempt", "schedulers.attempt", _count_useful)
                )
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for owner, attribute, layer, observe in self._targets():
            original = vars(owner)[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original, observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def totals(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, calls)`` over every thread."""
        merged = {layer: [0.0, 0] for layer in LAYERS}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, (seconds, calls) in state.layers.items():
                entry = merged.setdefault(layer, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
        return {layer: (entry[0], entry[1]) for layer, entry in merged.items()}

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        for stats in self._sweeps.values():
            for name in ("fresh_solves", "incremental_steps"):
                merged[name] = merged.get(name, 0) + stats.get(name, 0)
        return merged


def scheduler_classes() -> list[type]:
    """Every concrete scheduler class the registry can build."""
    from repro.schedulers.registry import available_schedulers, make_scheduler

    classes = []
    for name in available_schedulers():
        cls = type(make_scheduler(name))
        if cls not in classes:
            classes.append(cls)
    return classes


# ----------------------------------------------------------------------
@dataclass
class Replay:
    """One in-process pass over a workload's request stream."""

    wall_s: float
    #: Per request: ``(ii, maxlive)`` when it completed, else the error
    #: type name.
    outcomes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if isinstance(outcome, str))


def replay(workload, tracer: LayerTracer | None = None) -> Replay:
    """Run every request through a fresh ``SchedulingExecutor``.

    With a *tracer* the wrappers must already be installed; each request
    becomes one ``service.executor`` root span.
    """
    from repro.service.executor import SchedulingExecutor
    from repro.service.store import ArtifactStore

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="replay-", dir=WORK_DIR)
    try:
        executor = SchedulingExecutor(ArtifactStore(store_dir))
        outcomes: list = []
        start = time.perf_counter()
        for body in workload.requests:
            try:
                if tracer is None:
                    result = executor.execute_request("schedule", body)
                else:
                    result = tracer.call(
                        ROOT_LAYER, executor.execute_request, "schedule", body
                    )
                    tracer.harvest()
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append((result["ii"], result["maxlive"]))
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return Replay(wall, outcomes)
