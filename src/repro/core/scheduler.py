"""The HRMS scheduler (Section 3.3).

Operations are placed in the pre-ordering's sequence.  Because of the
ordering invariant, each operation (except recurrence closers) sees only
predecessors or only successors in the partial schedule:

* only predecessors — place **as soon as possible**: scan EarlyStart …
  EarlyStart+II−1;
* only successors — place **as late as possible**: scan LateStart …
  LateStart−II+1;
* both (recurrence closers) — scan EarlyStart … min(LateStart,
  EarlyStart+II−1);
* neither (the very first node of a component) — scan 0 … II−1.

The modulo constraint makes windows longer than II pointless.  If any
operation finds no slot the pass fails; the placement ladder
(:func:`~repro.schedulers.base.bidirectional_ladder`, shared with SMS;
``docs/ARCHITECTURE.md``, "The placement ladder") places the same order
under its fallback rows too, sharing the prefix on which rows agree,
and when every row fails the driver retries with II+1 — *reusing the
same ordering*, the asymmetry the paper highlights against
ordering-per-II methods.

One deliberate strengthening over the paper's formulas:
EarlyStart/LateStart are computed from the **MinDist matrix** (longest
dependence paths at the candidate II) rather than from direct edges only.
Direct-edge bounds are incomplete when a path between two recurrence
nodes runs through a not-yet-scheduled operation — the gap they leave is
II-invariant, so the paper's II+1 retry can loop forever on loops with
several overlapping recurrence subgraphs.  Transitive bounds are exact:
by the longest-path triangle inequality every window is non-empty, so
only resource conflicts can fail an attempt and the II search always
terminates.  On graphs where the direct bounds suffice (every example in
the paper, and any loop whose scheduled neighbours mediate all paths) the
two formulations place operations identically.
"""

from __future__ import annotations

from typing import Any

from repro.core.ordering import OrderingResult, hrms_order
from repro.engine.session import SchedulingSession
from repro.schedulers.base import ModuloScheduler, bidirectional_ladder


class HRMSScheduler(ModuloScheduler):
    """Hypernode Reduction Modulo Scheduling."""

    name = "hrms"

    def __init__(
        self,
        max_ii: int | None = None,
        initial_hypernode: str | None = None,
    ) -> None:
        super().__init__(max_ii=max_ii)
        self._initial_hypernode = initial_hypernode

    def prepare(self, session: SchedulingSession) -> OrderingResult:
        return hrms_order(
            session.graph,
            mii_result=session.analysis,
            initial_hypernode=self._initial_hypernode,
        )

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        ordering: OrderingResult = context
        return bidirectional_ladder(session, ii, ordering.order)
