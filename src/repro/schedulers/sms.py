"""Swing Modulo Scheduling (SMS) — HRMS's published successor.

Llosa, González, Ayguadé & Valero refined HRMS into *Swing Modulo
Scheduling* (PACT'96), the register-sensitive software pipeliner later
adopted by GCC and LLVM.  It keeps HRMS's bidirectional placement but
replaces hypernode reduction with a lighter **mobility-driven ordering**:

1. Compute each operation's earliest/latest start at the MII
   (cyclic ASAP/ALAP via the MinDist machinery) and its *mobility*
   (slack = ALAP − ASAP; critical-path and recurrence nodes have zero).
2. Grow the order outward from the most critical node: at every step,
   among the unordered neighbours of the ordered set (falling back to all
   unordered nodes when a component is exhausted), pick the one with the
   least mobility — ties broken towards greater depth, then program
   order.  Growing neighbour-first "swings" the traversal back and forth
   across the graph, guaranteeing a scheduled reference operation exactly
   like HRMS's invariant.
3. Place each operation with the same EarlyStart/LateStart windows as
   HRMS (transitive bounds, II-long scans, II+1 on failure).

Included both as a usable scheduler (registry name ``"sms"``) and as the
repository's "future work" ablation: the SMS-vs-HRMS comparison shows
how much of HRMS's benefit survives the cheaper ordering.
"""

from __future__ import annotations

from typing import Any

from repro.engine.session import SchedulingSession
from repro.engine.windows import cyclic_frame
from repro.graph.ddg import DependenceGraph
from repro.schedulers.base import ModuloScheduler, bidirectional_ladder


class SwingScheduler(ModuloScheduler):
    """Swing Modulo Scheduling (mobility-ordered bidirectional placement)."""

    name = "sms"

    def prepare(self, session: SchedulingSession) -> list[str]:
        mii = session.analysis.mii
        return swing_order(session.graph, session.mindist(max(mii, 1)))

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        return bidirectional_ladder(session, ii, context)


def swing_order(graph: DependenceGraph, solved) -> list[str]:
    """The SMS node order: least mobility first, grown over neighbours.

    ``solved`` is the MinDist result at ``max(mii, 1)`` — the scheduler
    passes its session's matrix through.
    """
    if solved is None:  # cannot happen for mii >= RecMII
        raise ValueError("infeasible MII for swing ordering")
    dist, names = solved
    view = graph.indexed()
    asap, alap = cyclic_frame(dist, view.latencies)
    mobility = (alap - asap).tolist()
    depth = asap.tolist()  # shallow critical nodes first: a chain's head

    def key(i: int) -> tuple[int, int, int]:
        return (mobility[i], depth[i], i)

    ordered: list[str] = []
    remaining = set(range(len(names)))
    frontier: set[int] = set()
    while remaining:
        pick = min(frontier or remaining, key=key)
        ordered.append(names[pick])
        remaining.discard(pick)
        frontier.update(view.predecessors[pick], view.successors[pick])
        frontier &= remaining
    return ordered
