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
    names = graph.node_names()
    position = {name: i for i, name in enumerate(names)}
    seen: set[str] = set()
    components: list[list[str]] = []
    for name in names:
        if name in seen:
            continue
        members = [name]
        seen.add(name)
        stack = [name]
        while stack:
            node = stack.pop()
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    members.append(neighbor)
                    stack.append(neighbor)
        members.sort(key=position.__getitem__)
        components.append(members)
    return components

