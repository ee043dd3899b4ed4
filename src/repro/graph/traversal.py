"""Topological orders, ASAP/ALAP/PALA sorts and reachability.

These helpers operate on any object exposing the small graph protocol used
throughout the library (``node_names``, ``predecessors``, ``successors``,
``operation``) so they work both on :class:`~repro.graph.ddg.DependenceGraph`
and on the mutable hypernode working graph used by the pre-ordering phase.

Ties are always broken by *program order* (the order of ``node_names()``),
which keeps every algorithm deterministic — a requirement for reproducible
experiments.

:func:`strongly_connected` is the one Tarjan pass of the library.  It
works on int adjacency instead, so the circuit search and the MinDist
condensation can both run it over the graph's
:class:`~repro.graph.indexed.IndexedGraph`.
"""

from __future__ import annotations

import heapq
from typing import Container, Iterable, Protocol, Sequence

from repro.errors import CyclicGraphError


class GraphLike(Protocol):
    """Minimal protocol the traversal helpers require."""

    def node_names(self) -> list[str]: ...

    def predecessors(self, name: str) -> list[str]: ...

    def successors(self, name: str) -> list[str]: ...

    def operation(self, name: str): ...


def topological_order(graph: GraphLike) -> list[str]:
    """Kahn's algorithm with program-order tie-breaking.

    Raises :class:`CyclicGraphError` when the graph has a directed cycle.
    """
    names = graph.node_names()
    position = {name: i for i, name in enumerate(names)}
    indegree = {name: 0 for name in names}
    for name in names:
        for succ in graph.successors(name):
            if succ in indegree and succ != name:
                indegree[succ] += 1
    # A heap of program positions keeps program order among ready nodes.
    heap = [position[name] for name, deg in indegree.items() if deg == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        name = names[heapq.heappop(heap)]
        order.append(name)
        for succ in graph.successors(name):
            if succ == name or succ not in indegree:
                continue
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, position[succ])
    if len(order) != len(names):
        raise CyclicGraphError(
            "graph has a directed cycle; topological order undefined"
        )
    return order


def is_acyclic(graph: GraphLike) -> bool:
    """``True`` when the graph has no directed cycle."""
    try:
        topological_order(graph)
    except CyclicGraphError:
        return False
    return True


def asap_levels(graph: GraphLike) -> dict[str, int]:
    """Earliest start level of each node (longest path from the sources).

    Edge weight is the producer's latency; sources sit at level 0.
    """
    levels: dict[str, int] = {}
    for name in topological_order(graph):
        level = 0
        for pred in graph.predecessors(name):
            if pred == name:
                continue
            level = max(level, levels[pred] + graph.operation(pred).latency)
        levels[name] = level
    return levels


def alap_levels(graph: GraphLike) -> dict[str, int]:
    """Latest start level of each node, anchored to the critical path.

    Sinks sit at ``critical_path - latency``; every other node as late as
    its successors permit.  Levels share the ASAP origin so
    ``slack = alap - asap >= 0``.
    """
    order = topological_order(graph)
    asap = asap_levels(graph)
    horizon = max(
        (asap[name] + graph.operation(name).latency for name in order),
        default=0,
    )
    levels: dict[str, int] = {}
    for name in reversed(order):
        latency = graph.operation(name).latency
        level = horizon - latency
        for succ in graph.successors(name):
            if succ == name:
                continue
            level = min(level, levels[succ] - latency)
        levels[name] = level
    return levels


def asap_order(graph: GraphLike) -> list[str]:
    """Topological order sorted by ASAP level (program order within a level).

    This is the "Sort_ASAP" of Figure 5: successors of the hypernode are
    ordered earliest-first so that, during scheduling, each node finds a
    previously scheduled predecessor.
    """
    asap = asap_levels(graph)
    # ``node_names`` is in program order and ``sorted`` is stable.
    return sorted(graph.node_names(), key=asap.__getitem__)


def pala_order(graph: GraphLike) -> list[str]:
    """The paper's "Sort_PALA": an ALAP topological sort, list inverted.

    Predecessor batches are emitted deepest-node-first, so the node adjacent
    to the hypernode is scheduled first (as late as possible) and every
    following node already has a successor in the partial schedule.
    """
    alap = alap_levels(graph)
    return sorted(graph.node_names(), key=alap.__getitem__)[::-1]


def forward_reachable(
    graph: GraphLike,
    seeds: Iterable[str],
    blocked: Container[str] = frozenset(),
) -> set[str]:
    """Nodes reachable from *seeds* (seeds included) without passing
    through a *blocked* node."""
    return _reach(seeds, graph.successors, blocked)


def backward_reachable(
    graph: GraphLike,
    seeds: Iterable[str],
    blocked: Container[str] = frozenset(),
) -> set[str]:
    """Nodes from which some seed is reachable (seeds included) without
    passing through a *blocked* node."""
    return _reach(seeds, graph.predecessors, blocked)


def _reach(seeds: Iterable[str], step, blocked: Container[str]) -> set[str]:
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen and nxt not in blocked:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def strongly_connected(successors: Sequence[Sequence[int]]) -> list[int]:
    """Tarjan's SCCs (iterative) over int adjacency: a component id for
    every node.

    Tarjan closes a component only after every component it reaches, so
    the ids come out in reverse topological order of the condensation:
    an edge between two components always runs from the higher id to
    the lower one.
    """
    count = len(successors)
    index = [-1] * count
    lowlink = [0] * count
    on_stack = [False] * count
    component = [-1] * count
    stack: list[int] = []
    counter = 0
    components = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            node, edge_idx = work.pop()
            if edge_idx == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            neighbors = successors[node]
            for i in range(edge_idx, len(neighbors)):
                succ = neighbors[i]
                if index[succ] < 0:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    break
                if on_stack[succ]:
                    lowlink[node] = min(lowlink[node], index[succ])
            else:
                if lowlink[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component[member] = components
                        if member == node:
                            break
                    components += 1
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return component
