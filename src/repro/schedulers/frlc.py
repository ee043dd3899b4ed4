"""FRLC — Wang & Eisenbeis's decomposed software pipelining [23].

The published method decomposes modulo scheduling into (1) choosing *row
numbers* (which iteration-relative stage each operation belongs to, i.e. a
retiming that removes loop-carried edges) and (2) list-scheduling the
resulting acyclic graph.  Both decisions optimise the initiation interval
only; register pressure is never consulted — which is exactly the role the
paper assigns FRLC in Table 1.

Our implementation computes the cyclic-ASAP time of every operation at the
candidate II (equivalent to the retiming ``row = asap // II`` composed
with the in-row offset) and list-schedules in that priority, placing each
operation as soon as possible.  Flat-ASAP placement is aggressive about
the II and indifferent to lifetimes, reproducing FRLC's behaviour:
competitive initiation intervals, materially worse buffer counts.
"""

from __future__ import annotations

from typing import Any

from repro.engine.session import SchedulingSession
from repro.schedulers.base import (
    ModuloScheduler,
    direct_edge_pass,
    upward_window,
)


class FRLCScheduler(ModuloScheduler):
    """Decomposed software pipelining (register-insensitive)."""

    name = "frlc"

    def prepare(self, session: SchedulingSession) -> dict[str, int]:
        return session.graph.indexed().position

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        position: dict[str, int] = context
        asap = session.cyclic_asap(ii)
        if asap is None:
            return None
        order = sorted(
            session.graph.node_names(), key=lambda n: (asap[n], position[n])
        )

        def window(name, es, ls, start):
            # The retiming floor keeps every op at or after its cyclic-ASAP
            # time, so recurrence circuits are never stretched beyond
            # distance * II by construction.
            es = max(asap[name], es if es is not None else 0)
            if ls is not None and es > ls:
                return None
            return upward_window(es, ii, ls)

        return direct_edge_pass(session, ii, order, window)
