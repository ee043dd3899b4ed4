"""Vectorized, incremental EarlyStart/LateStart bounds.

For a partial schedule, the transitive bounds of Section 3.3 are::

    EarlyStart(v) = max over scheduled u:  t_u + mindist[u][v]
    LateStart(v)  = min over scheduled u:  t_u - mindist[v][u]

The seed recomputed both with a Python loop over every scheduled
operation *per placement query* — O(n) dict lookups per query, O(n^2)
per attempt.  :class:`StartBounds` keeps the running max/min for **all**
operations as NumPy arrays and folds each new placement in with one
add and one max (min) per side, making every query O(1) and every
placement O(n).

"No constraint" is encoded in the values themselves rather than in a
separate reachability mask: an unreachable pair contributes
``cycle + NO_PATH`` to the max (``cycle - NO_PATH`` to the min), which
stays on the far side of a fixed threshold from every real bound as
long as placement cycles stay within :data:`CYCLE_LIMIT`.

Placements are monotone (bounds only tighten), which is exactly how the
window-scanning schedulers (HRMS, SMS) use them; ejection-based methods
that un-place operations recompute their bounds per pick instead.
"""

from __future__ import annotations

import numpy as np

from repro.engine.mindist import _NO_PATH_CUTOFF, NO_PATH
from repro.errors import SchedulingError

#: Placement cycles must satisfy ``|cycle| < CYCLE_LIMIT``: a
#: real MinDist entry exceeds the cutoff and an unreachable one is
#: saturated at ``NO_PATH``, so within the limit every real bound lies
#: above ``_ES_THRESHOLD`` and every unreachable one below it (mirrored
#: for LateStart).
CYCLE_LIMIT = (_NO_PATH_CUTOFF - NO_PATH) // 2
_ES_THRESHOLD = (NO_PATH + _NO_PATH_CUTOFF) // 2
_LS_THRESHOLD = -_ES_THRESHOLD
#: Initial values, far beyond any unreachable contribution.
_ES_UNSET = 4 * NO_PATH
_LS_UNSET = -4 * NO_PATH


def cyclic_frame(
    dist: np.ndarray, latencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The static cyclic ``(asap, alap)`` frame of a MinDist matrix.

    ``asap[v]`` is the longest path into ``v``, never below 0.  The
    horizon — the critical-path anchor — is the latest completion,
    ``max(asap + latency)``; ``alap[v]`` is the horizon minus the
    longest path out of ``v`` plus the path end's latency, never below
    ``asap[v]``.  *latencies* is indexed like the matrix rows.  SMS's
    mobility, Slack's priority frame and the session's cyclic ASAP all
    read this one frame.
    """
    asap = np.maximum(dist.max(axis=0), 0)
    horizon = int((asap + latencies).max())
    alap = horizon - (dist + latencies[None, :]).max(axis=1)
    return asap, np.maximum(alap, asap)


class StartBounds:
    """Running transitive EarlyStart/LateStart over a MinDist matrix.

    Exact while every placed cycle satisfies ``|cycle| < CYCLE_LIMIT``
    (about 2.5e8); :meth:`place` raises
    :class:`~repro.errors.SchedulingError` for a cycle outside that
    range rather than let the encoding answer wrong.
    """

    def __init__(self, dist: np.ndarray) -> None:
        n = dist.shape[0]
        #: The matrix the bounds were built over (read-only, shared);
        #: sessions use its identity to decide whether a cached
        #: instance can be reset instead of rebuilt.
        self.dist = dist
        self._dist_t = np.ascontiguousarray(dist.T)
        self._es = np.full(n, _ES_UNSET, dtype=np.int64)
        self._ls = np.full(n, _LS_UNSET, dtype=np.int64)

    def reset(self) -> None:
        """Forget every placement; equivalent to a fresh construction
        over the same matrix (the transpose is kept)."""
        self._es.fill(_ES_UNSET)
        self._ls.fill(_LS_UNSET)

    def checkpoint(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the running bounds, for :meth:`restore`."""
        return self._es.copy(), self._ls.copy()

    def restore(self, saved: tuple[np.ndarray, np.ndarray]) -> None:
        """Return to the bounds :meth:`checkpoint` saw (*saved* is
        copied, so one checkpoint can be restored many times)."""
        np.copyto(self._es, saved[0])
        np.copyto(self._ls, saved[1])

    def place(self, i: int, cycle: int) -> None:
        """Fold ``operation i scheduled at cycle`` into every bound."""
        if abs(cycle) >= CYCLE_LIMIT:
            raise SchedulingError(
                f"placement cycle {cycle} is outside the exact range "
                f"|cycle| < {CYCLE_LIMIT}"
            )
        np.maximum(self._es, self.dist[i] + cycle, out=self._es)
        np.minimum(self._ls, cycle - self._dist_t[i], out=self._ls)

    def early_start(self, i: int) -> int | None:
        """EarlyStart of operation *i*, or ``None`` if unconstrained."""
        bound = self._es.item(i)
        return bound if bound > _ES_THRESHOLD else None

    def late_start(self, i: int) -> int | None:
        """LateStart of operation *i*, or ``None`` if unconstrained."""
        bound = self._ls.item(i)
        return bound if bound < _LS_THRESHOLD else None
