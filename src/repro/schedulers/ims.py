"""Rau's Iterative Modulo Scheduling (IMS) [19].

The paper cites IMS as the state-of-the-art iterative scheduler; it is the
natural fourth baseline next to Top-Down, Slack and FRLC.  The algorithm
(MICRO-27, 1994):

1. operations are prioritised by **height** — the longest dependence path
   (at the candidate II) from the operation to any other, so operations on
   critical chains schedule first;
2. the highest-priority unscheduled operation computes its EarlyStart from
   its already-scheduled *immediate predecessors* and scans the II-wide
   window ``[ES, ES + II - 1]`` for a free slot;
3. when no slot exists the operation is **force-placed** at max(ES, one
   past its previous placement) and every operation it conflicts with —
   by resources or by a violated dependence — is evicted and rescheduled
   later (this is the "iterative" part);
4. a budget linear in the loop size bounds total placements; exhausting
   it abandons the attempt and the driver retries at II + 1.

Unlike HRMS and Slack, IMS schedules strictly top-down (windows always
scan upward), so it is register-insensitive; its role in the comparison is
quality-of-II at heuristic cost.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine import NO_PATH
from repro.engine.session import SchedulingSession
from repro.schedulers.base import (
    ModuloScheduler,
    early_start,
    evict_violations,
    force_place,
)


class IMSScheduler(ModuloScheduler):
    """Iterative modulo scheduling with height priority and ejection."""

    name = "ims"

    def __init__(
        self, max_ii: int | None = None, budget_factor: int = 6
    ) -> None:
        super().__init__(max_ii=max_ii)
        self._budget_factor = budget_factor

    def prepare(self, session: SchedulingSession) -> dict[str, int]:
        """Program-order positions: matrix rows and the tiebreak."""
        return session.graph.indexed().position

    # ------------------------------------------------------------------
    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        position: dict[str, int] = context
        graph = session.graph
        result = session.mindist(ii)
        if result is None:
            return None
        dist, names = result
        heights = self._heights(dist, graph.indexed().latencies)

        mrt = session.mrt(ii)
        start: dict[str, int] = {}
        unscheduled = set(names)
        last_forced: dict[str, int] = {}
        budget = self._budget_factor * len(names) + 32

        while unscheduled:
            pick = max(
                unscheduled,
                key=lambda n: (heights[position[n]], -position[n]),
            )
            op = graph.operation(pick)
            es = early_start(graph, start, pick, ii)
            es = 0 if es is None else es

            placed_at = mrt.scan_place(op, range(es, es + ii))
            if placed_at is None:
                placed_at = force_place(
                    graph, mrt, start, unscheduled, pick, es, last_forced
                )
                if placed_at is None:
                    return None
            start[pick] = placed_at
            unscheduled.discard(pick)
            # A slot legal w.r.t. predecessors may still violate an edge
            # to an already-scheduled successor (EarlyStart ignores them);
            # Rau's algorithm displaces such neighbours on every placement.
            evict_violations(
                graph, mrt, start, unscheduled, pick, placed_at, ii
            )
            budget -= 1
            if budget <= 0 and unscheduled:
                return None
        return start

    # ------------------------------------------------------------------
    @staticmethod
    def _heights(dist: np.ndarray, latencies: np.ndarray) -> np.ndarray:
        """Longest II-adjusted path from each operation to any other."""
        reachable = dist > NO_PATH // 2
        heights = np.where(reachable, dist, np.int64(0)).max(axis=1)
        return heights + latencies
