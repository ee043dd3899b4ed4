"""Top-Down scheduler (the Section 4.2 comparator, after Llosa et al. [15]).

Operations are visited in topological order of the acyclic condensation
(recurrence backward edges removed) with program-order tie-breaking, and
each is placed **as soon as possible** after its scheduled predecessors —
operations with no predecessors go as early as cycle 0 "in order not to
delay any possible successor" (Section 2), which is precisely what
stretches lifetimes like V5 in the motivating example.

Recurrence closers additionally respect the LateStart bound from their
scheduled successors (the backward edge's head is placed first in
topological order).
"""

from __future__ import annotations

from typing import Any

from repro.core.hypernode import HypernodeGraph
from repro.engine.session import SchedulingSession
from repro.graph.ddg import DependenceGraph
from repro.graph.traversal import topological_order
from repro.mii.analysis import MIIResult
from repro.mii.recurrences import all_backward_edge_keys
from repro.schedulers.base import (
    ModuloScheduler,
    direct_edge_pass,
    upward_window,
)


def acyclic_topological_order(
    graph: DependenceGraph, analysis: MIIResult
) -> list[str]:
    """Topological order after removing recurrence backward edges."""
    dropped = all_backward_edge_keys(analysis.subgraphs)
    working = HypernodeGraph(graph, dropped_edge_keys=dropped)
    return topological_order(working)


class TopDownScheduler(ModuloScheduler):
    """ASAP list scheduling in topological order."""

    name = "topdown"

    def prepare(self, session: SchedulingSession) -> list[str]:
        return acyclic_topological_order(session.graph, session.analysis)

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        def window(name, es, ls, start):
            es = 0 if es is None else es
            if ls is not None and es > ls:
                return None
            return upward_window(es, ii, ls)

        return direct_edge_pass(session, ii, context, window)
