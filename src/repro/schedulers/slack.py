"""Huff's lifetime-sensitive Slack scheduling [10].

The method keeps, for every unscheduled operation, a dynamic window
``[EarlyStart, LateStart]`` computed from the MinDist matrix and the
partial schedule, and repeatedly places the operation with the smallest
*slack* (window width).  Placement is bidirectional — operations pulled by
predecessors scan their window upward, operations pulled by successors
scan downward — which is what makes the heuristic lifetime-sensitive.

When an operation has no free slot in its window it is **force-placed** at
its EarlyStart (bumping one cycle on repeats) and the operations it
conflicts with — resource conflicts and violated dependences alike — are
ejected back into the unscheduled pool (Huff's "operation ejection").  A
budget proportional to the loop size bounds the total number of
placements; exhausting it fails the attempt and the driver retries at
II+1.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine import NO_PATH
from repro.engine.session import SchedulingSession
from repro.engine.windows import cyclic_frame
from repro.schedulers.base import (
    ModuloScheduler,
    evict_violations,
    force_place,
)


class SlackScheduler(ModuloScheduler):
    """Lifetime-sensitive slack scheduling with ejection."""

    name = "slack"

    def __init__(
        self, max_ii: int | None = None, budget_factor: int = 6
    ) -> None:
        super().__init__(max_ii=max_ii)
        self._budget_factor = budget_factor

    def prepare(self, session: SchedulingSession) -> dict[str, int]:
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
        es0, ls0 = cyclic_frame(dist, graph.indexed().latencies)

        mrt = session.mrt(ii)
        start: dict[str, int] = {}
        unscheduled = set(names)
        last_forced: dict[str, int] = {}
        budget = self._budget_factor * len(names) + 32

        while unscheduled:
            pick, es, hard_ls, early_first = self._select(
                dist, names, position, es0, ls0, start, unscheduled
            )
            op = graph.operation(pick)
            placed_at = None
            # The scan window is bounded below by dependences (es) and
            # above only by *placed successors* (hard_ls); the static
            # ALAP frame drives the slack priority but must not clip the
            # scan — on resource-bound loops it would pin every critical
            # operation to one cycle and thrash the ejection machinery.
            top = es + ii - 1 if hard_ls is None else min(hard_ls, es + ii - 1)
            if es <= top:
                if early_first:
                    window = range(es, top + 1)
                else:
                    window = range(top, es - 1, -1)
                placed_at = mrt.scan_place(op, window)
            if placed_at is None:
                placed_at = force_place(
                    graph, mrt, start, unscheduled, pick, es, last_forced
                )
                if placed_at is None:
                    return None
                evict_violations(
                    graph, mrt, start, unscheduled, pick, placed_at, ii
                )
            start[pick] = placed_at
            unscheduled.discard(pick)
            budget -= 1
            if budget <= 0 and unscheduled:
                return None
        return start

    # ------------------------------------------------------------------
    @staticmethod
    def _select(
        dist: np.ndarray,
        names: list[str],
        index: dict[str, int],
        es0: np.ndarray,
        ls0: np.ndarray,
        start: dict[str, int],
        unscheduled: set[str],
    ) -> tuple[str, int, int | None, bool]:
        """Pick the min-slack operation, its hard window and direction.

        Returns ``(name, es, hard_ls, early_first)``: ``es`` is the hard
        dependence lower bound (static cyclic ASAP tightened by placed
        predecessors); ``hard_ls`` is the upper bound imposed by placed
        successors, or ``None`` when no placed successor constrains the
        operation (the static ALAP frame enters the *priority* — the
        slack — but not the feasible window, since an unconstrained
        operation may legally stretch the schedule).

        The dynamic bounds of every unscheduled operation against every
        placed one are computed in two vectorised passes over the
        MinDist matrix (loops up to ~200 operations make a per-pair
        Python loop the scheduler's bottleneck).
        """
        hi = np.iinfo(np.int64).max
        reachable = dist > NO_PATH // 2
        es = es0.astype(np.int64).copy()
        priority_ls = ls0.astype(np.int64).copy()
        up = np.full(len(names), hi, dtype=np.int64)
        pred_bound = np.zeros(len(names), dtype=bool)
        if start:
            placed = np.fromiter(
                (index[o] for o in start), dtype=np.int64, count=len(start)
            )
            cycles = np.fromiter(
                start.values(), dtype=np.int64, count=len(start)
            )
            lo = np.iinfo(np.int64).min
            down = np.where(
                reachable[placed, :], cycles[:, None] + dist[placed, :], lo
            ).max(axis=0)
            up = np.where(
                reachable[:, placed], cycles[None, :] - dist[:, placed], hi
            ).min(axis=1)
            pred_bound = down >= es
            es = np.maximum(es, down)
            priority_ls = np.minimum(priority_ls, up)

        best: tuple | None = None
        for name in unscheduled:
            i = index[name]
            slack = int(priority_ls[i]) - int(es[i])
            key = (slack, int(es[i]), i)
            if best is None or key < best[0]:
                succ_bound = up[i] != hi
                early_first = not succ_bound or pred_bound[i]
                hard_ls = int(up[i]) if succ_bound else None
                best = (key, name, int(es[i]), hard_ls, bool(early_first))
        assert best is not None
        _, name, es_pick, hard_ls, early_first = best
        return name, es_pick, hard_ls, early_first
