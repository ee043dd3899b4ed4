"""Weakly-connected components of a dependence graph.

Section 3 of the paper: when the dependence graph is not connected, each
connected component is ordered separately and the per-component orders are
concatenated, giving higher priority to the component with the most
restrictive recurrence circuit (largest RecMII).
"""

from __future__ import annotations

from repro.graph.ddg import DependenceGraph


def connected_components(graph: DependenceGraph) -> list[list[str]]:
    """Weakly-connected components, each in program order.

    Components themselves are returned in order of their earliest member,
    so the output is deterministic for a given graph.
    """
    view = graph.indexed()
    seen = [False] * len(view.names)
    components: list[list[str]] = []
    for root in range(len(seen)):
        if seen[root]:
            continue
        seen[root] = True
        members, stack = [root], [root]
        while stack:
            node = stack.pop()
            for other in view.predecessors[node] + view.successors[node]:
                if not seen[other]:
                    seen[other] = True
                    members.append(other)
                    stack.append(other)
        components.append([view.names[i] for i in sorted(members)])
    return components
