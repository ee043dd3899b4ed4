"""Data-dependence-graph (DDG) substrate.

A loop body is modelled as a dependence graph ``G = (V, E, delta, lambda)``
per Section 3 of the paper: vertices are operations with a latency, edges are
dependences annotated with an iteration *distance* (``delta >= 0``; positive
distance means the dependence is loop-carried).

Public surface:

* :class:`~repro.graph.ops.Operation` — a loop operation.
* :class:`~repro.graph.edges.Edge` / :class:`~repro.graph.edges.DependenceKind`
  — a typed dependence.
* :class:`~repro.graph.ddg.DependenceGraph` — the graph container.
* :mod:`~repro.graph.indexed` — the immutable integer view
  (:class:`~repro.graph.indexed.IndexedGraph`: positions, latencies,
  edge arrays, int adjacency) every layer reads, built once per graph
  version by :meth:`~repro.graph.ddg.DependenceGraph.indexed`.
* :class:`~repro.graph.builder.GraphBuilder` — fluent construction DSL.
* :mod:`~repro.graph.traversal` — topological orders, ASAP/ALAP/PALA levels,
  reachability.
* :mod:`~repro.graph.components` — weakly-connected components.
* :mod:`~repro.graph.circuits` — elementary-circuit enumeration (Johnson).
* :mod:`~repro.graph.serialization` — JSON round-tripping.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import DependenceKind, Edge
from repro.graph.ops import Operation

__all__ = [
    "DependenceGraph",
    "DependenceKind",
    "Edge",
    "GraphBuilder",
    "Operation",
]
