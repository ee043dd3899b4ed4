"""The complete HRMS pre-ordering driver.

Combines the pieces of Section 3: the graph is decomposed into
weakly-connected components; each component is ordered separately —
recurrence subgraphs first (by decreasing RecMII), the acyclic remainder
after — and the per-component orders are concatenated, giving priority to
the component with the most restrictive recurrence circuit.

The resulting order has two properties the scheduler relies on:

* every node appears exactly once;
* when a node is scheduled, the already-scheduled nodes among its
  neighbours are only predecessors or only successors (except recurrence
  closers), so bidirectional placement always has a reference operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hypernode import HypernodeGraph
from repro.core.preorder import pre_ordering
from repro.core.recurrence_order import order_recurrences
from repro.errors import UnknownOperationError
from repro.graph.components import connected_components
from repro.graph.ddg import DependenceGraph
from repro.mii.analysis import MIIResult, compute_mii
from repro.mii.recurrences import RecurrenceSubgraph, all_backward_edge_keys


@dataclass
class OrderingResult:
    """The pre-ordering output plus the analysis it was derived from."""

    order: list[str]
    mii: MIIResult


def hrms_order(
    graph: DependenceGraph,
    mii_result: MIIResult | None = None,
    machine=None,
    initial_hypernode: str | None = None,
) -> OrderingResult:
    """Compute the HRMS scheduling order for *graph*.

    ``mii_result`` may be passed to reuse a previous analysis; otherwise
    ``machine`` is required to compute one.  ``initial_hypernode`` overrides
    the default starting node of its component when that component has no
    recurrence (the paper's footnote 1 observes the choice barely matters;
    the ablation experiment exercises this knob).  It must name an
    operation of *graph*, else :class:`UnknownOperationError` is raised.
    """
    if initial_hypernode is not None and initial_hypernode not in graph:
        raise UnknownOperationError(initial_hypernode)
    if mii_result is None:
        if machine is None:
            raise ValueError("need either mii_result or machine")
        mii_result = compute_mii(graph, machine)

    dropped = all_backward_edge_keys(mii_result.subgraphs)
    components = connected_components(graph)
    # A recurrence is strongly connected, so it lies inside one component.
    component_of = {
        name: index
        for index, members in enumerate(components)
        for name in members
    }
    subgraphs: list[list[RecurrenceSubgraph]] = [[] for _ in components]
    recmii = [0] * len(components)
    for subgraph in mii_result.subgraphs:
        index = component_of[subgraph.nodes[0]]
        subgraphs[index].append(subgraph)
        if not subgraph.is_trivial:
            recmii[index] = max(recmii[index], subgraph.recmii)

    # Priority: most restrictive recurrence first, then program order
    # (components come in order of their earliest member).
    full_order: list[str] = []
    for index in sorted(range(len(components)), key=lambda i: -recmii[i]):
        full_order.extend(
            _order_component(
                graph,
                components[index],
                subgraphs[index],
                dropped,
                initial_hypernode,
            )
        )
    return OrderingResult(order=full_order, mii=mii_result)


def _order_component(
    graph: DependenceGraph,
    members: list[str],
    subgraphs: list[RecurrenceSubgraph],
    dropped: set,
    initial_hypernode: str | None,
) -> list[str]:
    """Order one weakly-connected component."""
    hgraph = HypernodeGraph(graph, nodes=members, dropped_edge_keys=dropped)
    ordered: list[str] = []

    hypernode = order_recurrences(hgraph, subgraphs, ordered)
    if hypernode is None:
        # Recurrence-free component: start from its first node in program
        # order (or the caller-specified override when it lies here).
        if initial_hypernode is not None and initial_hypernode in hgraph:
            hypernode = initial_hypernode
        else:
            hypernode = hgraph.first_node
        ordered.append(hypernode)

    return pre_ordering(hgraph, ordered, hypernode)
