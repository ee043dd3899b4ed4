"""The dependence-graph container.

:class:`DependenceGraph` stores operations in *program order* (insertion
order) and supports the small set of mutating operations the algorithms
need: adding/removing operations and edges, and cheap copying.  Multiple
parallel edges between the same pair of operations are allowed as long as
they differ in distance or kind (e.g. a register and a memory dependence).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import (
    DuplicateOperationError,
    UnknownOperationError,
    ZeroDistanceCycleError,
)
from repro.graph.edges import DependenceKind, Edge
from repro.graph.indexed import IndexedGraph, index_graph
from repro.graph.ops import Operation


class DependenceGraph:
    """A loop-body data dependence graph ``G = (V, E, delta, lambda)``.

    Operations are identified by name.  Program order — the order in which
    operations were added — is preserved and used by the algorithms whenever
    the paper says "the first node of the graph".
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._ops: dict[str, Operation] = {}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        self._edge_keys: set[tuple[str, str, int, str]] = set()
        #: Bumped by every mutation that changes the graph, so derived
        #: state (the session's MinDist memo) can tell it is stale in O(1).
        self.version = 0
        #: ``(version, view)`` of the last :meth:`indexed` call, one
        #: attribute so a concurrent reader never sees a torn pair (two
        #: racing first calls build equal views; either may stay).
        self._indexed: tuple[int, IndexedGraph] | None = None

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> Operation:
        """Insert *op*; raises :class:`DuplicateOperationError` on repeats."""
        if op.name in self._ops:
            raise DuplicateOperationError(op.name)
        self._ops[op.name] = op
        self._out[op.name] = []
        self._in[op.name] = []
        self.version += 1
        return op

    def add_edge(self, edge: Edge) -> Edge:
        """Insert *edge*; endpoints must already exist.

        Duplicate edges (same endpoints, distance and kind) are ignored,
        which makes graph-rewriting passes idempotent.
        """
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._ops:
                raise UnknownOperationError(endpoint)
        if edge.key in self._edge_keys:
            return edge
        self._edge_keys.add(edge.key)
        self._out[edge.src].append(edge)
        self._in[edge.dst].append(edge)
        self.version += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        """Remove *edge*; silently ignores edges not present."""
        if edge.key not in self._edge_keys:
            return
        self._edge_keys.discard(edge.key)
        self._out[edge.src] = [
            e for e in self._out[edge.src] if e.key != edge.key
        ]
        self._in[edge.dst] = [e for e in self._in[edge.dst] if e.key != edge.key]
        self.version += 1

    def remove_operation(self, name: str) -> None:
        """Remove an operation and every edge incident to it."""
        if name not in self._ops:
            raise UnknownOperationError(name)
        for edge in list(self._out[name]) + list(self._in[name]):
            self.remove_edge(edge)
        del self._ops[name]
        del self._out[name]
        del self._in[name]
        self.version += 1

    def copy(self, name: str | None = None) -> "DependenceGraph":
        """Return an independent copy (operations are shared, edges copied)."""
        clone = DependenceGraph(name or self.name)
        for op in self._ops.values():
            clone.add_operation(op)
        for edge in self.edges():
            clone.add_edge(edge)
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ops)

    def operation(self, name: str) -> Operation:
        """Look up an operation by name."""
        try:
            return self._ops[name]
        except KeyError:
            raise UnknownOperationError(name) from None

    def operations(self) -> list[Operation]:
        """All operations in program order."""
        return list(self._ops.values())

    def node_names(self) -> list[str]:
        """All operation names in program order."""
        return list(self._ops)

    @property
    def first_node(self) -> str:
        """The first operation in program order ("First" in the paper)."""
        if not self._ops:
            raise UnknownOperationError("<empty graph>")
        return next(iter(self._ops))

    def indexed(self) -> IndexedGraph:
        """The integer view of this graph version, built on first use
        and shared until the next mutation."""
        cached = self._indexed
        version = self.version
        if cached is None or cached[0] != version:
            cached = self._indexed = (version, index_graph(self))
        return cached[1]

    def edges(self) -> list[Edge]:
        """All edges, grouped by source in program order."""
        return [edge for out in self._out.values() for edge in out]

    def edge_count(self) -> int:
        return len(self._edge_keys)

    def out_edges(self, name: str) -> list[Edge]:
        """Edges leaving *name*."""
        self.operation(name)
        return list(self._out[name])

    def in_edges(self, name: str) -> list[Edge]:
        """Edges entering *name*."""
        self.operation(name)
        return list(self._in[name])

    def successors(self, name: str) -> list[str]:
        """Distinct successor names of *name* (program-order stable)."""
        seen: dict[str, None] = {}
        for edge in self._out[name]:
            seen.setdefault(edge.dst, None)
        return list(seen)

    def predecessors(self, name: str) -> list[str]:
        """Distinct predecessor names of *name* (program-order stable)."""
        seen: dict[str, None] = {}
        for edge in self._in[name]:
            seen.setdefault(edge.src, None)
        return list(seen)

    def value_consumers(self, name: str) -> list[tuple[str, int]]:
        """``(consumer, distance)`` pairs of register edges leaving *name*."""
        return [
            (edge.dst, edge.distance)
            for edge in self._out[name]
            if edge.kind is DependenceKind.REGISTER
        ]

    def subgraph(
        self, names: Iterable[str], name: str | None = None
    ) -> "DependenceGraph":
        """Induced subgraph over *names* (program order preserved)."""
        keep = set(names)
        for missing in keep - set(self._ops):
            raise UnknownOperationError(missing)
        sub = DependenceGraph(name or f"{self.name}.sub")
        for op_name, op in self._ops.items():
            if op_name in keep:
                sub.add_operation(op)
        for edge in self.edges():
            if edge.src in keep and edge.dst in keep:
                sub.add_edge(edge)
        return sub

    def total_latency(self) -> int:
        """Sum of all operation latencies (used for II search bounds)."""
        return sum(op.latency for op in self._ops.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject graphs containing a zero-total-distance cycle.

        Such a cycle would make an operation depend on itself in the same
        iteration, which no schedule can satisfy.  Detection: a cycle made
        only of distance-0 edges exists iff the distance-0 subgraph has a
        directed cycle (DFS colouring).
        """
        color: dict[str, int] = {}  # 0 = white, 1 = grey, 2 = black

        def dfs(start: str) -> None:
            stack: list[tuple[str, Iterator[Edge]]] = [
                (start, iter(self._out[start]))
            ]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for edge in it:
                    if edge.distance != 0:
                        continue
                    state = color.get(edge.dst, 0)
                    if state == 1:
                        raise ZeroDistanceCycleError(
                            f"graph {self.name!r}: zero-distance cycle "
                            f"through {edge.dst!r}"
                        )
                    if state == 0:
                        color[edge.dst] = 1
                        stack.append((edge.dst, iter(self._out[edge.dst])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()

        for name in self._ops:
            if color.get(name, 0) == 0:
                dfs(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DependenceGraph({self.name!r}, |V|={len(self)}, "
            f"|E|={self.edge_count()})"
        )
