"""Recurrence-constrained minimum initiation interval (RecMII).

A recurrence circuit from an operation to an instance of itself ``omega``
iterations later must not be stretched beyond ``omega * II`` cycles
(Section 3), hence every circuit ``c`` imposes
``II >= ceil(latency_sum(c) / distance_sum(c))`` and RecMII is the maximum
over all elementary circuits.  The enumeration folds that ratio into each
recurrence group as circuits close
(:class:`~repro.graph.circuits.CircuitGroup`), so this is a maximum over
the groups, not over the circuits.
"""

from __future__ import annotations

from repro.errors import ZeroDistanceCycleError
from repro.graph.circuits import CircuitEnumeration, elementary_circuits
from repro.graph.ddg import DependenceGraph


def check_circuit_distances(circuits: CircuitEnumeration) -> None:
    """Raise :class:`ZeroDistanceCycleError` for the first circuit, in
    sequence order, whose dependence distances sum to zero: no II can
    schedule it."""
    if circuits.zero_distance_root is not None:
        raise ZeroDistanceCycleError(
            f"circuit through {circuits.zero_distance_root!r} has zero "
            "total distance"
        )


def compute_recmii(
    graph: DependenceGraph,
    circuits: CircuitEnumeration | None = None,
) -> int:
    """Lower bound on II imposed by loop-carried dependences.

    ``circuits`` may be supplied to reuse a prior enumeration (the
    pre-ordering phase needs the recurrence groups anyway).
    """
    if circuits is None:
        circuits = elementary_circuits(graph)
    check_circuit_distances(circuits)
    return max((group.recmii for group in circuits.groups), default=1)
