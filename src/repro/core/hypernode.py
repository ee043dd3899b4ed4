"""The one working graph of the pre-ordering phase.

:class:`HypernodeGraph` is a light adjacency-set view over a
:class:`~repro.graph.ddg.DependenceGraph`.  It supports the one rewriting
operation the paper's Figure 6 defines — **hypernode reduction** — plus the
virtual edges Section 3.2 needs to connect otherwise-unreachable recurrence
subgraphs, and :meth:`~HypernodeGraph.induced`, the detached copy every
batch is sorted and ordered on.

Edge distances and kinds are irrelevant here: ordering happens on the
backward-edge-free (acyclic) graph, and the topological sorts only need
adjacency plus node latencies (read through to the base graph).  The
backward edges are removed per *hop*: a ``(src, dst)`` pair that carries
a dropped backward key loses every parallel edge, since any of them
would close the recurrence again.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import UnknownOperationError
from repro.graph.ddg import DependenceGraph
from repro.graph.ops import Operation


class HypernodeGraph:
    """Adjacency view supporting hypernode reduction.

    Parameters
    ----------
    base:
        The original dependence graph (for latencies and program order).
    nodes:
        Subset of base nodes this working graph covers.
    dropped_edge_keys:
        Keys of the recurrence backward edges; every edge on one of their
        ``(src, dst)`` hops is omitted.
    """

    def __init__(
        self,
        base: DependenceGraph,
        nodes: Iterable[str] | None = None,
        dropped_edge_keys: set[tuple[str, str, int, str]] | None = None,
    ) -> None:
        view = base.indexed()
        names, position = view.names, view.position
        keep = set(names if nodes is None else nodes)
        self._base = base
        self._position = position
        self._nodes: set[str] = keep
        dropped = {(src, dst) for src, dst, _, _ in dropped_edge_keys or ()}
        self._succ: dict[str, set[str]] = {name: set() for name in keep}
        self._pred: dict[str, set[str]] = {name: set() for name in keep}
        for src in keep:
            for j in view.successors[position[src]]:
                dst = names[j]
                if dst in keep and (src, dst) not in dropped:
                    self._succ[src].add(dst)
                    self._pred[dst].add(src)

    # ------------------------------------------------------------------
    # Graph protocol (shared with DependenceGraph)
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node_names(self) -> list[str]:
        """Remaining nodes in program order."""
        return sorted(self._nodes, key=self._position.__getitem__)

    def predecessors(self, name: str) -> list[str]:
        self._check(name)
        return sorted(self._pred[name], key=self._position.__getitem__)

    def successors(self, name: str) -> list[str]:
        self._check(name)
        return sorted(self._succ[name], key=self._position.__getitem__)

    def operation(self, name: str) -> Operation:
        return self._base.operation(name)

    @property
    def first_node(self) -> str:
        names = self.node_names()
        if not names:
            raise UnknownOperationError("<empty hypernode graph>")
        return names[0]

    def _check(self, name: str) -> None:
        if name not in self._nodes:
            raise UnknownOperationError(name)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_virtual_edge(self, src: str, dst: str) -> None:
        """Connect *src* -> *dst* (Section 3.2's disconnected-recurrence fix).

        Virtual edges exist only in the working graph; the scheduler never
        sees them, so they bias the ordering without constraining placement.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    def induced(self, names: Iterable[str]) -> "HypernodeGraph":
        """A detached working graph over *names*.

        The copy keeps the *current* adjacency among *names* — virtual
        edges and earlier reductions included — and shares the base graph
        and the position table, so later mutations of either graph never
        reach the other.
        """
        keep = set(names)
        for name in keep:
            self._check(name)
        copy = object.__new__(HypernodeGraph)
        copy._base = self._base
        copy._position = self._position
        copy._nodes = keep
        copy._succ = {name: self._succ[name] & keep for name in keep}
        copy._pred = {name: self._pred[name] & keep for name in keep}
        return copy

    def reduce(self, names: Iterable[str], hypernode: str) -> "HypernodeGraph":
        """Figure 6: reduce *names* into *hypernode*.

        Returns :meth:`induced` over *names* (taken before deletion) so
        the caller can topologically sort the batch.  In the working
        graph, edges among ``names + {hypernode}`` disappear and edges
        crossing the boundary are re-attached to the hypernode.
        """
        self._check(hypernode)
        batch = set(names)
        batch.discard(hypernode)
        captured = self.induced(batch)

        merged = batch | {hypernode}
        for name in batch:
            for succ in self._succ[name]:
                self._pred[succ].discard(name)
                if succ not in merged:
                    self._succ[hypernode].add(succ)
                    self._pred[succ].add(hypernode)
            for pred in self._pred[name]:
                self._succ[pred].discard(name)
                if pred not in merged:
                    self._pred[hypernode].add(pred)
                    self._succ[pred].add(hypernode)
            del self._succ[name]
            del self._pred[name]
            self._nodes.discard(name)
        # The reduction may have created h -> h artefacts; drop them.
        self._succ[hypernode].discard(hypernode)
        self._pred[hypernode].discard(hypernode)
        return captured

