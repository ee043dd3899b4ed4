"""One immutable integer view of a dependence graph per graph version.

The pre-ordering, the circuit search, the MinDist factorisation and the
placement passes all work on program-order positions; they share the
view :meth:`~repro.graph.ddg.DependenceGraph.indexed` builds once per
graph ``version``.  It holds tuples, ints and read-only arrays, no
per-node lists, dicts or sets: tuples of ints drop out of the garbage
collector's tracking, so the views cached sessions keep alive add
almost nothing to what each collection walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.edges import Edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.ddg import DependenceGraph


@dataclass(frozen=True, slots=True, eq=False)
class IndexedGraph:
    """Positions, latencies, edges and adjacency of one graph version;
    every array and adjacency tuple is indexed by position."""

    #: Operation names in program order.
    names: tuple[str, ...]
    #: Name -> position.  A plain dict for lookup speed: shared by every
    #: reader, so nothing may write to it.
    position: dict[str, int]
    #: Operation latencies (int64, read-only, like every array here).
    latencies: np.ndarray
    #: Every edge in :meth:`~repro.graph.ddg.DependenceGraph.edges` order,
    #: so ``edge_src`` is non-decreasing.
    edges: tuple[Edge, ...]
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_distance: np.ndarray
    #: Distinct neighbour positions of each node, sorted, self-edges
    #: left out.
    successors: tuple[tuple[int, ...], ...]
    predecessors: tuple[tuple[int, ...], ...]


def _frozen(values: list[int]) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.setflags(write=False)
    return array


def index_graph(graph: "DependenceGraph") -> IndexedGraph:
    """The view of *graph* as it is now (read it through the cached
    :meth:`~repro.graph.ddg.DependenceGraph.indexed`)."""
    names = tuple(graph.node_names())
    position = {name: i for i, name in enumerate(names)}
    edges = tuple(graph.edges())
    src = [position[edge.src] for edge in edges]
    dst = [position[edge.dst] for edge in edges]
    successors: list[list[int]] = [[] for _ in names]
    predecessors: list[list[int]] = [[] for _ in names]
    # Sorted distinct hops fill both sides in ascending order.
    for i, j in sorted({(i, j) for i, j in zip(src, dst) if i != j}):
        successors[i].append(j)
        predecessors[j].append(i)
    # Equal neighbour tuples are stored once (on chains, the successors
    # of ``i - 1`` and the predecessors of ``i + 1`` are both ``(i,)``).
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}

    def adjacency(lists: list[list[int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(shared.setdefault(t, t) for t in map(tuple, lists))

    return IndexedGraph(
        names=names,
        position=position,
        latencies=_frozen([graph.operation(name).latency for name in names]),
        edges=edges,
        edge_src=_frozen(src),
        edge_dst=_frozen(dst),
        edge_distance=_frozen([edge.distance for edge in edges]),
        successors=adjacency(successors),
        predecessors=adjacency(predecessors),
    )
