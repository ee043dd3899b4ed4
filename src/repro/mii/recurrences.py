"""Recurrence subgraphs (Section 3.2).

Recurrence circuits that share the same set of *backward edges* (the
loop-carried edges that close them) are merged into a single **recurrence
subgraph** — Figure 8b's two circuits, for example, become the one subgraph
{A, B, C, D, E}.  Circuits with distinct backward-edge sets stay separate
subgraphs even when they share nodes (Figures 8c/8d).  The circuit search
does the merge as circuits close
(:class:`~repro.graph.circuits.CircuitGroup`), so this module turns each
group into one subgraph without reading a circuit.

After grouping, the node lists are *simplified*: a node appearing in
several subgraphs is kept only in the most restrictive one (largest
RecMII — the first in the priority list), mirroring the paper's
simplification step.  Trivial circuits (self-dependences) constrain RecMII
but are dropped from the pre-ordering input, as the paper prescribes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.graph.circuits import (
    Circuit,
    CircuitEnumeration,
    elementary_circuits,
)
from repro.graph.ddg import DependenceGraph
from repro.mii.recmii import check_circuit_distances


@dataclass
class RecurrenceSubgraph:
    """A maximal set of circuits sharing one backward-edge set."""

    backward_edge_keys: frozenset[tuple[str, str, int, str]]
    nodes: list[str]
    recmii: int = 1
    #: Node list after cross-subgraph simplification; what the ordering
    #: phase actually consumes.  Populated by
    #: :func:`simplify_subgraph_node_lists`.
    ordering_nodes: list[str] = field(default_factory=list)
    #: The enumeration this subgraph was grouped from; :attr:`circuits`
    #: reads it.
    source: Sequence[Circuit] = field(default=(), repr=False, compare=False)

    @property
    def is_trivial(self) -> bool:
        """Self-dependence of a single operation."""
        return len(self.nodes) == 1

    @property
    def circuits(self) -> list[Circuit]:
        """The subgraph's circuits in enumeration order.  Reading them
        builds every circuit of :attr:`source` once; the scheduling path
        never does."""
        return [
            circuit
            for circuit in self.source
            if circuit.backward_keys == self.backward_edge_keys
        ]


def _nodes_of(mask: int, names: Sequence[str]) -> list[str]:
    """The names of *mask*'s set bits, lowest bit (earliest node) first."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(names[low.bit_length() - 1])
        mask ^= low
    return nodes


def find_recurrence_subgraphs(
    graph: DependenceGraph,
    circuits: CircuitEnumeration | None = None,
) -> list[RecurrenceSubgraph]:
    """One subgraph per recurrence group, sorted by decreasing RecMII.

    Ties are broken by the program-order position of each subgraph's
    earliest node, then by the order in which the groups' backward-edge
    sets first appear among the circuits, keeping the priority list
    deterministic.
    """
    if circuits is None:
        circuits = elementary_circuits(graph)
    check_circuit_distances(circuits)
    groups = sorted(
        circuits.groups,
        key=lambda g: (-g.recmii, (g.node_mask & -g.node_mask).bit_length()),
    )
    subgraphs = [
        RecurrenceSubgraph(
            backward_edge_keys=group.backward_keys,
            nodes=_nodes_of(group.node_mask, circuits.names),
            recmii=group.recmii,
            source=circuits,
        )
        for group in groups
    ]
    simplify_subgraph_node_lists(subgraphs)
    return subgraphs


def simplify_subgraph_node_lists(
    subgraphs: list[RecurrenceSubgraph],
) -> None:
    """Remove redundant nodes: keep each node only in its first subgraph.

    *subgraphs* must already be sorted by decreasing RecMII; the result is
    stored in each subgraph's ``ordering_nodes``.

    Trivial circuits (self-dependences) impose no pre-ordering constraint —
    the scheduler already guarantees ``II >= RecMII`` — so they neither
    claim their node nor receive an ordering list (Section 3.2).
    """
    claimed: set[str] = set()
    for subgraph in subgraphs:
        if subgraph.is_trivial:
            subgraph.ordering_nodes = []
            continue
        subgraph.ordering_nodes = [
            name for name in subgraph.nodes if name not in claimed
        ]
        claimed.update(subgraph.nodes)


def all_backward_edge_keys(
    subgraphs: list[RecurrenceSubgraph],
) -> set[tuple[str, str, int, str]]:
    """Union of backward-edge keys over all subgraphs.

    The pre-ordering phase removes exactly these edges to obtain an acyclic
    working graph (Section 3.2: "all the backward edges causing recurrences
    have been removed").
    """
    keys: set[tuple[str, str, int, str]] = set()
    for subgraph in subgraphs:
        keys.update(subgraph.backward_edge_keys)
    return keys
