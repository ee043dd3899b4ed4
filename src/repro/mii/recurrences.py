"""Recurrence subgraphs (Section 3.2).

Recurrence circuits that share the same set of *backward edges* (the
loop-carried edges that close them) are merged into a single **recurrence
subgraph** — Figure 8b's two circuits, for example, become the one subgraph
{A, B, C, D, E}.  Circuits with distinct backward-edge sets stay separate
subgraphs even when they share nodes (Figures 8c/8d).

After grouping, the node lists are *simplified*: a node appearing in
several subgraphs is kept only in the most restrictive one (largest
RecMII — the first in the priority list), mirroring the paper's
simplification step.  Trivial circuits (self-dependences) constrain RecMII
but are dropped from the pre-ordering input, as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.circuits import Circuit, elementary_circuits
from repro.graph.ddg import DependenceGraph
from repro.mii.recmii import circuit_recmii


@dataclass
class RecurrenceSubgraph:
    """A maximal set of circuits sharing one backward-edge set."""

    backward_edge_keys: frozenset[tuple[str, str, int, str]]
    nodes: list[str]
    circuits: list[Circuit] = field(default_factory=list)
    recmii: int = 1
    #: Node list after cross-subgraph simplification; what the ordering
    #: phase actually consumes.  Populated by
    #: :func:`simplify_subgraph_node_lists`.
    ordering_nodes: list[str] = field(default_factory=list)

    @property
    def is_trivial(self) -> bool:
        """Self-dependence of a single operation."""
        return len(self.nodes) == 1


def find_recurrence_subgraphs(
    graph: DependenceGraph,
    circuits: list[Circuit] | None = None,
) -> list[RecurrenceSubgraph]:
    """Group circuits into subgraphs and sort by decreasing RecMII.

    Ties are broken by the program-order position of each subgraph's
    earliest node, keeping the priority list deterministic.
    """
    if circuits is None:
        circuits = elementary_circuits(graph)
    position = {name: i for i, name in enumerate(graph.node_names())}

    by_backward: dict[frozenset, RecurrenceSubgraph] = {}
    members: dict[frozenset, set[str]] = {}
    for circuit in circuits:
        key = circuit.backward_keys
        subgraph = by_backward.get(key)
        if subgraph is None:
            subgraph = by_backward[key] = RecurrenceSubgraph(
                backward_edge_keys=key, nodes=[], circuits=[]
            )
            members[key] = set()
        subgraph.circuits.append(circuit)
        members[key].update(circuit.nodes)
        subgraph.recmii = max(subgraph.recmii, circuit_recmii(circuit))

    subgraphs = list(by_backward.values())
    for subgraph in subgraphs:
        subgraph.nodes = sorted(
            members[subgraph.backward_edge_keys], key=position.__getitem__
        )
    subgraphs.sort(
        key=lambda s: (-s.recmii, position[s.nodes[0]])
    )
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
