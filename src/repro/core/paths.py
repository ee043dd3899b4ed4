"""Search_All_Paths (Section 3.1).

Given a seed set ``V'`` (the current predecessors or successors of the
hypernode, or the hypernode plus the next recurrence subgraph), return every
node lying on a directed path between two seeds.  On an acyclic graph this
is exactly::

    forward_reachable(V') ∩ backward_reachable(V')

— a node ``x`` is on some path ``u -> ... -> x -> ... -> v`` with
``u, v ∈ V'`` iff it is reachable from a seed and reaches a seed.  Seeds
are trivially included (length-0 paths).  Two linear passes of
:func:`~repro.graph.traversal.forward_reachable` and
:func:`~repro.graph.traversal.backward_reachable` give the
``O(|V| + |E|)`` bound the paper quotes.

The hypernode itself must never act as an *intermediate* node: after a few
reductions it is adjacent to most of the graph and would smuggle unrelated
nodes into the batch.  Callers therefore pass ``exclude`` (the hypernode)
whenever it is not itself a seed; both passes treat it as ``blocked``.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.traversal import (
    GraphLike,
    backward_reachable,
    forward_reachable,
)


def search_all_paths(
    graph: GraphLike,
    seeds: Iterable[str],
    exclude: Iterable[str] = (),
) -> set[str]:
    """Nodes on any directed path between members of *seeds*.

    ``exclude`` nodes are removed from the traversal entirely, unless
    they are seeds themselves: a node that is both a seed and excluded
    stays a seed, which is what the recurrence-ordering caller wants.
    """
    seed_set = set(seeds)
    blocked = set(exclude) - seed_set
    return forward_reachable(graph, seed_set, blocked) & backward_reachable(
        graph, seed_set, blocked
    )
