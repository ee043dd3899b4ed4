"""End-to-end request tracing with zero disarmed overhead.

The design mirrors :mod:`repro.service.faults`: a module-level
:data:`ACTIVE` collector that is ``None`` when tracing is off, so every
instrumentation site in the hot path costs a single ``if`` when
disarmed.  Armed, spans are recorded into a bounded in-memory store
keyed by trace id and served at ``GET /v1/traces/<id>``.

Propagation:

- **threads** — a thread-local context stack carries the current
  ``(trace_id, span_id)``; :func:`attach` re-parents a worker thread
  (portfolio members, pool workers) onto a span started elsewhere.
- **processes** — :func:`wire_context` snapshots the current context
  into the ``{"kind", "request"}`` wire envelope; the worker attaches
  to it, and its finished spans ride back in the result envelope
  (see :mod:`repro.service.procpool`).
- **HTTP** — clients send ``X-Hrms-Trace-Id``; the service adopts it as
  the trace id for the submitted job and echoes the id in responses.

Arming is refcounted (:func:`arm` / :func:`disarm`) so overlapping
services in one process — common in tests — do not disarm each other.
The process-wide collector outlives disarming, so traces recorded while
a service ran stay retrievable after it stops.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict

#: Bounded number of finished traces the collector retains.
TRACES_KEPT = 256

#: Per-span cap on recorded point events; extras only bump a counter.
MAX_EVENTS = 512


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation inside a trace.

    Timestamps are wall-clock (``time.time()``) so spans recorded in
    worker processes line up with their parents when merged.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attrs",
        "events",
        "events_dropped",
        "_pushed",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.name = name
        self.start = time.time()
        self.end: float | None = None
        self.attrs: dict = attrs or {}
        self.events: list[tuple[float, str, dict | None]] = []
        self.events_dropped = 0
        self._pushed = False

    def add_event(self, name: str, attrs: dict | None = None) -> None:
        """Record a point event on this span (capped at MAX_EVENTS)."""
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append((time.time(), name, attrs))

    def to_dict(self) -> dict:
        """JSON-serialisable form served by ``GET /v1/traces/<id>``."""
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": None if self.end is None else self.end - self.start,
            "attrs": self.attrs,
            "events": [
                {"ts": ts, "name": name, **(attrs or {})}
                for ts, name, attrs in self.events
            ],
        }
        if self.events_dropped:
            record["events_dropped"] = self.events_dropped
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a span shipped across the process-pool wire."""
        span = cls.__new__(cls)
        span.trace_id = record["trace_id"]
        span.span_id = record["span_id"]
        span.parent_id = record.get("parent_id")
        span.name = record["name"]
        span.start = record["start"]
        span.end = record.get("end")
        span.attrs = record.get("attrs") or {}
        span.events = [
            (
                event["ts"],
                event["name"],
                {k: v for k, v in event.items() if k not in ("ts", "name")}
                or None,
            )
            for event in record.get("events", ())
        ]
        span.events_dropped = record.get("events_dropped", 0)
        span._pushed = False
        return span


class TraceCollector:
    """Bounded in-memory store of finished spans, keyed by trace id."""

    def __init__(self, traces_kept: int = TRACES_KEPT) -> None:
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[Span]] = OrderedDict()
        self._traces_kept = traces_kept

    # -- recording -----------------------------------------------------
    def record(self, span: Span) -> None:
        """File a finished span under its trace id (bounded LRU)."""
        with self._lock:
            bucket = self._traces.get(span.trace_id)
            if bucket is None:
                bucket = self._traces[span.trace_id] = []
                while len(self._traces) > self._traces_kept:
                    self._traces.popitem(last=False)
            bucket.append(span)

    def merge(self, records: list[dict]) -> None:
        """Absorb span dicts drained from a worker process."""
        for record in records:
            self.record(Span.from_dict(record))

    # -- retrieval -----------------------------------------------------
    def trace(self, trace_id: str) -> list[dict] | None:
        """All finished spans of a trace, sorted by start time."""
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                return None
            spans = list(bucket)
        return [span.to_dict() for span in sorted(spans, key=lambda s: s.start)]

    def drain(self, trace_id: str) -> list[dict]:
        """Pop and return a trace's spans (worker → parent shipping)."""
        with self._lock:
            bucket = self._traces.pop(trace_id, None)
        return [span.to_dict() for span in bucket] if bucket else []

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._traces.values())


#: The armed collector, or ``None`` when tracing is off.  Hot-path
#: sites guard on this exact global, like ``faults.ACTIVE``.
ACTIVE: TraceCollector | None = None

#: Process-wide collector reused across arm/disarm cycles.
COLLECTOR = TraceCollector()

_ARM_LOCK = threading.Lock()
_ARM_COUNT = 0

_CTX = threading.local()


def arm() -> TraceCollector:
    """Enable tracing (refcounted); returns the live collector."""
    global ACTIVE, _ARM_COUNT
    with _ARM_LOCK:
        _ARM_COUNT += 1
        ACTIVE = COLLECTOR
    return COLLECTOR


def disarm() -> None:
    """Drop one arm() reference; tracing turns off at zero."""
    global ACTIVE, _ARM_COUNT
    with _ARM_LOCK:
        _ARM_COUNT = max(0, _ARM_COUNT - 1)
        if _ARM_COUNT == 0:
            ACTIVE = None


def enabled() -> bool:
    return ACTIVE is not None


# -- thread-local context ---------------------------------------------
def _stack() -> list[Span]:
    stack = getattr(_CTX, "stack", None)
    if stack is None:
        stack = _CTX.stack = []
    return stack


def current() -> tuple[str, str] | None:
    """The current ``(trace_id, span_id)``, or ``None`` outside a trace."""
    stack = getattr(_CTX, "stack", None)
    if not stack:
        return None
    top = stack[-1]
    return (top.trace_id, top.span_id)


def current_trace_id() -> str | None:
    stack = getattr(_CTX, "stack", None)
    return stack[-1].trace_id if stack else None


def add_event(name: str, attrs: dict | None = None) -> None:
    """Attach a point event to the innermost live span, if any.

    Hot-path callers must guard with ``if trace.ACTIVE is not None:``
    themselves — this function assumes tracing is armed.
    """
    stack = getattr(_CTX, "stack", None)
    if stack:
        stack[-1].add_event(name, attrs)


# -- span context managers --------------------------------------------
class _NullSpan:
    """Returned by :func:`span` when tracing is disarmed."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullSpan()


class _LiveSpan:
    __slots__ = ("_collector", "_name", "_attrs", "_span")

    def __init__(self, collector: TraceCollector, name: str, attrs: dict):
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span | None:
        parent = current()
        if parent is None:
            # No enclosing trace: nothing to parent onto, stay silent
            # rather than minting orphan traces for bare library calls.
            return None
        span = Span(self._name, parent[0], parent[1], self._attrs)
        span._pushed = True
        _stack().append(span)
        self._span = span
        return span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        span = self._span
        if span is not None:
            span.end = time.time()
            if exc_type is not None:
                span.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
            stack = _stack()
            if stack and stack[-1] is span:
                stack.pop()
            self._collector.record(span)
        return False


def span(name: str, **attrs: object) -> _NullSpan | _LiveSpan:
    """Context manager opening a child span of the current context.

    Disarmed this returns a shared no-op object; armed but outside any
    trace it records nothing (spans need a root to belong to — roots
    are started explicitly with :meth:`TraceCollector` begin/end or
    :func:`attach`).
    """
    collector = ACTIVE
    if collector is None:
        return _NULL
    return _LiveSpan(collector, name, attrs)


class _Attach:
    __slots__ = ("_trace_id", "_span_id", "_anchor")

    def __init__(self, trace_id: str, span_id: str):
        self._trace_id = trace_id
        self._span_id = span_id
        self._anchor: Span | None = None

    def __enter__(self) -> None:
        anchor = Span.__new__(Span)
        anchor.trace_id = self._trace_id
        anchor.span_id = self._span_id
        anchor.parent_id = None
        anchor.name = "<attach>"
        anchor.start = time.time()
        anchor.end = None
        anchor.attrs = {}
        anchor.events = []
        anchor.events_dropped = 0
        anchor._pushed = True
        _stack().append(anchor)
        self._anchor = anchor
        return None

    def __exit__(self, *exc: object) -> bool:
        stack = _stack()
        if stack and stack[-1] is self._anchor:
            stack.pop()
        return False


def attach(trace_id: str, span_id: str) -> _NullSpan | _Attach:
    """Adopt an existing span as this thread's current context.

    The anchor frame is never recorded — it only gives :func:`span`
    calls on this thread the right parent.  No-op when disarmed.
    """
    if ACTIVE is None:
        return _NULL
    return _Attach(trace_id, span_id)


# -- detached (root / synthesized) spans ------------------------------
def begin_root(
    name: str, trace_id: str, attrs: dict | None = None
) -> Span | None:
    """Start a root span WITHOUT touching the calling thread's context.

    Used for the per-job ``request`` span: it is opened on the
    submitting thread but belongs to the job, which finishes on a
    worker thread.  Returns ``None`` when disarmed.
    """
    if ACTIVE is None:
        return None
    return Span(name, trace_id, None, attrs)


def finish(span: Span | None, **attrs: object) -> None:
    """End and record a span obtained from :func:`begin_root`."""
    collector = ACTIVE
    if span is None:
        return
    span.end = time.time()
    if attrs:
        span.attrs.update(attrs)
    # Record into the process-wide collector even if a racing disarm
    # just flipped ACTIVE off: the span was started under tracing.
    (collector or COLLECTOR).record(span)


def record_span(
    name: str,
    trace_id: str,
    parent_id: str | None,
    start: float,
    end: float,
    attrs: dict | None = None,
) -> None:
    """Record a fully-formed span from known timestamps.

    Synthesizes spans whose interval was not bracketed by code — e.g.
    ``queue.wait`` is materialised when the worker picks the job up,
    spanning submit → start.
    """
    collector = ACTIVE
    if collector is None:
        return
    span = Span(name, trace_id, parent_id, attrs)
    span.start = start
    span.end = end
    collector.record(span)


# -- cross-process propagation ----------------------------------------
def wire_context() -> dict | None:
    """The current context as a wire-envelope fragment, or ``None``."""
    if ACTIVE is None:
        return None
    context = current()
    if context is None:
        return None
    return {"id": context[0], "parent": context[1]}
