"""Recurrence-constrained minimum initiation interval (RecMII).

A recurrence circuit from an operation to an instance of itself ``omega``
iterations later must not be stretched beyond ``omega * II`` cycles
(Section 3), hence every circuit ``c`` imposes
``II >= ceil(latency_sum(c) / distance_sum(c))`` and RecMII is the maximum
over all elementary circuits.  Both sums are cached on each
:class:`~repro.graph.circuits.Circuit` by the enumeration, so this is O(1)
per circuit.
"""

from __future__ import annotations

import math

from repro.errors import ZeroDistanceCycleError
from repro.graph.circuits import Circuit, elementary_circuits
from repro.graph.ddg import DependenceGraph


def circuit_recmii(circuit: Circuit) -> int:
    """The II lower bound a single circuit imposes."""
    if circuit.distance == 0:
        raise ZeroDistanceCycleError(
            f"circuit through {circuit.nodes[0]!r} has zero total distance"
        )
    return math.ceil(circuit.latency / circuit.distance)


def compute_recmii(
    graph: DependenceGraph,
    circuits: list[Circuit] | None = None,
) -> int:
    """Lower bound on II imposed by loop-carried dependences.

    ``circuits`` may be supplied to reuse a prior enumeration (the
    pre-ordering phase needs the circuits anyway).
    """
    if circuits is None:
        circuits = elementary_circuits(graph)
    recmii = 1
    for circuit in circuits:
        recmii = max(recmii, circuit_recmii(circuit))
    return recmii
