"""Percentiles with an explicit sample-count floor."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than MIN_BEYOND samples beyond it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the *q*-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated *q*-th percentile of *values*.

    Refuses (``TooFewSamples``) unless at least :data:`MIN_BEYOND`
    samples lie beyond it, so a p90 needs 100 samples and a p50 needs 20.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {samples_beyond(n, q)}"
        )
    ordered = sorted(values)
    position = (n - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)
