"""Pre-ordering of graphs with recurrence circuits (Figure 9, Section 3.2).

Recurrence subgraphs are processed by decreasing RecMII so the most
restrictive circuit is never stretched by nodes ordered before it:

1. The first subgraph (backward edges already removed from the working
   graph) is ordered with the acyclic algorithm, its first node becoming
   the component's hypernode, and then reduced into the hypernode.
2. Every following subgraph is reached through
   ``Search_All_Paths({hypernode} ∪ subgraph)`` so the connector nodes are
   ordered together with the circuit, then the whole batch is reduced.
   When no path exists, a *virtual edge* from the hypernode to the
   subgraph's first node is added, making the subgraph an (artificial)
   successor — the paper reduces an arbitrary node into the hypernode
   instead; the virtual edge has the same connective effect while keeping
   every node in the ordering (see DESIGN.md).
3. What remains is an acyclic graph with a single hypernode; the caller
   finishes it with the recurrence-free algorithm.

Each batch is ordered on :meth:`HypernodeGraph.induced`, a detached copy
of the current working graph, by :func:`~repro.core.preorder.pre_ordering`;
cross-subgraph simplification can leave a batch weakly disconnected, and
that sweep's virtual edges still emit every node exactly once.
"""

from __future__ import annotations

from repro.core.hypernode import HypernodeGraph
from repro.core.paths import search_all_paths
from repro.core.preorder import pre_ordering
from repro.graph.traversal import backward_reachable, forward_reachable
from repro.mii.recurrences import RecurrenceSubgraph


def order_recurrences(
    hgraph: HypernodeGraph,
    subgraphs: list[RecurrenceSubgraph],
    ordered: list[str],
) -> str | None:
    """Order all recurrence nodes of *hgraph*; returns the hypernode name.

    *subgraphs* must be sorted by decreasing RecMII with simplified node
    lists (as produced by :func:`repro.mii.find_recurrence_subgraphs`) and
    restricted to this working graph's component.  Returns ``None`` when no
    non-trivial recurrence exists (the caller then starts from the
    component's first node).
    """
    pending = [
        s
        for s in subgraphs
        if not s.is_trivial
        and any(name in hgraph for name in s.ordering_nodes)
    ]
    if not pending:
        return None

    first, *rest = pending
    seeds = [name for name in first.ordering_nodes if name in hgraph]
    inner = hgraph.induced(seeds)
    hypernode = inner.first_node
    ordered.append(hypernode)
    pre_ordering(inner, ordered, hypernode)
    hgraph.reduce([s for s in seeds if s != hypernode], hypernode)

    for subgraph in rest:
        seeds = [name for name in subgraph.ordering_nodes if name in hgraph]
        if not seeds:
            continue
        if not _connected(hgraph, hypernode, seeds):
            hgraph.add_virtual_edge(hypernode, seeds[0])
        batch_nodes = search_all_paths(hgraph, {hypernode, *seeds})
        pre_ordering(hgraph.induced(batch_nodes), ordered, hypernode)
        hgraph.reduce(batch_nodes - {hypernode}, hypernode)

    return hypernode


def _connected(
    hgraph: HypernodeGraph, hypernode: str, seeds: list[str]
) -> bool:
    """Is any seed on a directed path from or to the hypernode?"""
    forward = forward_reachable(hgraph, [hypernode])
    if any(seed in forward for seed in seeds):
        return True
    backward = backward_reachable(hgraph, [hypernode])
    return any(seed in backward for seed in seeds)

