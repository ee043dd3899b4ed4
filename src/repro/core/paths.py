"""Search_All_Paths (Section 3.1).

Given a seed set ``V'`` (the current predecessors or successors of the
hypernode, or the hypernode plus the next recurrence subgraph), return every
node lying on a directed path between two seeds.  On an acyclic graph this
is exactly::

    forward_reachable(V') ∩ backward_reachable(V')

— a node ``x`` is on some path ``u -> ... -> x -> ... -> v`` with
``u, v ∈ V'`` iff it is reachable from a seed and reaches a seed.  Seeds
are trivially included (length-0 paths).  Two linear passes give the
``O(|V| + |E|)`` bound the paper quotes.

The hypernode itself must never act as an *intermediate* node: after a few
reductions it is adjacent to most of the graph and would smuggle unrelated
nodes into the batch.  Callers therefore pass ``exclude`` (the hypernode)
whenever it is not itself a seed.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.traversal import GraphLike


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

    forward = _reach(graph, seed_set, blocked, forward=True)
    backward = _reach(graph, seed_set, blocked, forward=False)
    return forward & backward


def _reach(
    graph: GraphLike,
    seeds: set[str],
    blocked: set[str],
    forward: bool,
) -> set[str]:
    step = graph.successors if forward else graph.predecessors
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for nxt in step(node):
            if nxt in seen or nxt in blocked:
                continue
            seen.add(nxt)
            stack.append(nxt)
    return seen
