"""Pre-ordering of graphs without recurrence circuits (Figure 5).

Starting from the hypernode, the algorithm alternately drains the
hypernode's predecessors and successors.  Each sweep:

1. takes the current predecessor (successor) set of the hypernode,
2. widens it with every node on a path between two of its members
   (:func:`~repro.core.paths.search_all_paths`),
3. reduces the widened set into the hypernode (Figure 6), capturing the
   induced subgraph,
4. topologically sorts the captured subgraph — **PALA** (ALAP order, list
   inverted) for predecessors, **ASAP** for successors — and appends the
   result to the ordered list.

When the hypernode has neither predecessors nor successors left but the
working graph still holds other nodes (a stray acyclic fragment, or a
recurrence batch that simplification left weakly disconnected), a virtual
edge from the hypernode to the first of them makes it a successor and the
sweep goes on, so every node is emitted exactly once.

The invariant this establishes is the heart of HRMS: when the scheduler
later places a node, the partial schedule contains only that node's
predecessors or only its successors, never both (recurrence closers aside),
so the node always has a reference operation and is never pushed too early
or too late.
"""

from __future__ import annotations

from repro.core.hypernode import HypernodeGraph
from repro.core.paths import search_all_paths
from repro.graph.traversal import asap_order, pala_order


def pre_ordering(
    hgraph: HypernodeGraph,
    ordered: list[str],
    hypernode: str,
) -> list[str]:
    """Order every node of *hgraph* and reduce it into *hypernode*.

    *ordered* is the partial list built so far (mutated in place and also
    returned).  On return, *hgraph* holds the hypernode alone.
    """
    while True:
        preds = hgraph.predecessors(hypernode)
        if preds:
            batch = search_all_paths(hgraph, preds, exclude=(hypernode,))
            captured = hgraph.reduce(batch, hypernode)
            ordered.extend(pala_order(captured))

        succs = hgraph.successors(hypernode)
        if succs:
            batch = search_all_paths(hgraph, succs, exclude=(hypernode,))
            captured = hgraph.reduce(batch, hypernode)
            ordered.extend(asap_order(captured))

        if not preds and not succs:
            leftovers = [n for n in hgraph.node_names() if n != hypernode]
            if not leftovers:
                return ordered
            hgraph.add_virtual_edge(hypernode, leftovers[0])
