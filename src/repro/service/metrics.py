"""Thread-safe service counters and latency percentiles.

The service exposes these at ``GET /metrics`` in the Prometheus text
exposition format — ``# HELP``/``# TYPE`` headers, escaped label
values, one sample per line — which any scraper, or ``curl``, can read
without a client library.  Latencies are kept in bounded rings (the
most recent :data:`RESERVOIR` observations per family), which is exact
for test- and bench-sized runs and a recent-window estimate under
sustained load.

Besides the global job-latency reservoir there are *labeled families*:
:meth:`ServiceMetrics.observe` files an observation under an arbitrary
family name and label set (``phase="queue"``, ``scheduler="hrms"``, …)
and each label combination gets its own quantile series on /metrics.
"""

from __future__ import annotations

import threading
from collections import Counter, deque

#: How many recent latencies each percentile window keeps.
RESERVOIR = 4096

#: How many recent observations each labeled family series keeps.
FAMILY_RESERVOIR = 1024

#: Quantiles reported on /metrics.
QUANTILES = (0.5, 0.9, 0.99)

#: HELP text for metric names the service emits; anything not listed
#: falls back to a generic line (the format requires *a* HELP string,
#: not a great one).
HELP_TEXT = {
    "hrms_job_latency_seconds": "End-to-end job latency from submit to settle.",
    "hrms_job_latency_samples": "Observations currently in the job-latency window.",
    "hrms_phase_seconds": "Per-phase job latency (label: phase).",
    "hrms_scheduler_seconds": "Per-scheduler schedule-compute latency (label: scheduler).",
    "hrms_jobs_submitted_total": "Jobs accepted (queued, or settled at admission).",
    "hrms_jobs_admitted_total": "Jobs settled at admission from the request alias, never queued.",
    "hrms_jobs_done_total": "Jobs settled successfully.",
    "hrms_jobs_failed_total": "Jobs settled with a permanent error.",
    "hrms_jobs_timeout_total": "Jobs settled by deadline expiry.",
    "hrms_jobs_degraded_total": "Jobs settled by the degraded fallback path.",
    "hrms_jobs_retried_total": "Job attempts that were retried.",
    "hrms_http_errors_total": "HTTP responses with a 5xx status.",
    "hrms_schedules_computed_total": "Schedule artifacts computed (cache misses).",
    "hrms_store_hits_total": "Artifact-store cache hits.",
    "hrms_store_misses_total": "Artifact-store cache misses.",
    "hrms_queue_depth": "Jobs currently waiting in the priority queue.",
    "hrms_jobs_inflight": "Jobs currently executing.",
    "hrms_breaker_state": "Circuit-breaker state (0 closed, 1 half-open, 2 open).",
}

_DEFAULT_HELP = "HRMS scheduling-service metric."


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile of *values* by linear interpolation (empty → 0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class ServiceMetrics:
    """Monotonic counters plus latency reservoirs (global and labeled)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Counter[str] = Counter()
        self._latencies: deque[float] = deque(maxlen=RESERVOIR)
        # (family, sorted label items) -> bounded observation window
        self._families: dict[
            tuple[str, tuple[tuple[str, str], ...]], deque[float]
        ] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name* (created at 0)."""
        with self._lock:
            self._counters[name] += amount

    def observe_latency(self, seconds: float) -> None:
        """Record one job latency in the global percentile reservoir."""
        with self._lock:
            self._latencies.append(seconds)

    def observe(self, family: str, seconds: float, **labels: str) -> None:
        """Record one observation in the labeled *family* reservoir."""
        key = (family, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            window = self._families.get(key)
            if window is None:
                window = self._families[key] = deque(maxlen=FAMILY_RESERVOIR)
            window.append(seconds)

    def counter(self, name: str) -> int:
        """The current value of counter *name* (0 if never incremented)."""
        with self._lock:
            return self._counters[name]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters + latency quantiles as a plain dict."""
        with self._lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
            families = {
                key: list(window) for key, window in self._families.items()
            }
        quantiles = {q: percentile(latencies, q) for q in QUANTILES}
        family_stats = {}
        for (family, label_items), values in sorted(families.items()):
            family_stats.setdefault(family, []).append(
                {
                    "labels": dict(label_items),
                    "count": len(values),
                    "quantiles": {q: percentile(values, q) for q in QUANTILES},
                }
            )
        return {
            "counters": counters,
            "latency_quantiles": quantiles,
            "latency_samples": len(latencies),
            "families": family_stats,
        }

    def render_prometheus(self, gauges: dict[str, float] | None = None) -> str:
        """The /metrics body in Prometheus text exposition format.

        *gauges* carries point-in-time values the metrics object does
        not own (queue depth, breaker state, store hit rate).  Every
        series is preceded by its ``# HELP`` and ``# TYPE`` lines.
        """
        snap = self.snapshot()
        lines: list[str] = []

        def header(name: str, kind: str) -> None:
            help_text = HELP_TEXT.get(name, _DEFAULT_HELP)
            lines.append(f"# HELP {name} {escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

        for name, value in sorted((gauges or {}).items()):
            metric = f"hrms_{name}"
            header(metric, "gauge")
            lines.append(f"{metric} {value:g}")
        for name, value in sorted(snap["counters"].items()):
            metric = f"hrms_{name}_total"
            header(metric, "counter")
            lines.append(f"{metric} {value}")

        metric = "hrms_job_latency_seconds"
        header(metric, "summary")
        for q, value in snap["latency_quantiles"].items():
            lines.append(f'{metric}{{quantile="{q}"}} {value:.9f}')
        lines.append(f"{metric}_count {snap['latency_samples']}")

        for family, series in snap["families"].items():
            metric = f"hrms_{family}"
            header(metric, "summary")
            for entry in series:
                for q, value in entry["quantiles"].items():
                    labels = dict(entry["labels"])
                    labels["quantile"] = str(q)
                    lines.append(
                        f"{metric}{_render_labels(labels)} {value:.9f}"
                    )
                lines.append(
                    f"{metric}_count{_render_labels(entry['labels'])} "
                    f"{entry['count']}"
                )
        return "\n".join(lines) + "\n"
