"""Combined MII analysis.

One call computes ResMII, RecMII, the elementary circuits and the grouped
recurrence subgraphs; the scheduler and the pre-ordering phase both consume
the same :class:`MIIResult`.  The circuit search runs once per loop and
folds every circuit into its recurrence group as it closes, so RecMII and
the subgraphs come from the groups and no circuit object is built unless
:attr:`MIIResult.circuits` is read (which repeats the search once).  This
matches the paper's observation that recurrence identification is a small
fraction of scheduling time.

:func:`compute_mii` calls :func:`elementary_circuits`,
:func:`compute_recmii` and :func:`find_recurrence_subgraphs` through this
module's globals, so a profiler that wraps those names times each step.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.graph.circuits import Circuit, elementary_circuits
from repro.graph.ddg import DependenceGraph
from repro.machine.machine import MachineModel
from repro.mii.recmii import compute_recmii
from repro.mii.recurrences import RecurrenceSubgraph, find_recurrence_subgraphs
from repro.mii.resmii import compute_resmii


@dataclass
class MIIResult:
    """Everything the schedulers need to know about lower bounds."""

    resmii: int
    recmii: int
    #: Every elementary circuit; ``len()`` is free, reading a circuit
    #: builds them all (see :class:`~repro.graph.circuits.CircuitEnumeration`).
    circuits: Sequence[Circuit]
    subgraphs: list[RecurrenceSubgraph]

    @property
    def mii(self) -> int:
        """The minimum initiation interval."""
        return max(self.resmii, self.recmii)

    @property
    def recurrence_constrained(self) -> bool:
        """``True`` when recurrences (not resources) set the MII."""
        return self.recmii > self.resmii


def compute_mii(graph: DependenceGraph, machine: MachineModel) -> MIIResult:
    """Full lower-bound analysis for *graph* on *machine*."""
    circuits = elementary_circuits(graph)
    return MIIResult(
        resmii=compute_resmii(graph, machine),
        recmii=compute_recmii(graph, circuits),
        circuits=circuits,
        subgraphs=find_recurrence_subgraphs(graph, circuits),
    )
