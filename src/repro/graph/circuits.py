"""Elementary-circuit enumeration (Johnson's algorithm).

Recurrence analysis needs every elementary circuit of the dependence graph:
RecMII is a maximum over circuits, and the pre-ordering phase groups
circuits into *recurrence subgraphs* keyed by their sets of loop-carried
("backward") edges (Section 3.2).

Parallel edges: for a given cycle of *nodes*, the circuit that most
restricts RecMII is the one using the minimum-distance edge on every hop
(the latency sum is fixed by the nodes).  We therefore canonicalise each
node cycle to that minimal-distance edge selection; parallel edges with
larger distances are strictly less restrictive and never change the node
set of a recurrence subgraph.

The search is one pass over integer node indices (program-order
positions), so the circuit count, not per-circuit bookkeeping, sets its
cost:

* **Hop table.**  The canonical edge of every hop ``(i, j)`` is chosen
  once per graph, together with its distance and, for a loop-carried
  edge, one bit of a backward-edge mask.
* **Per-root SCC.**  Johnson roots the search at every node ``r`` in
  program order and searches the strongly-connected component of ``r``
  among the nodes at or after ``r``.  That component lies inside the
  top-level SCC of ``r``, so one Tarjan pass over the whole graph is
  followed, per root, by a forward/backward reachability intersection
  inside the root's top-level SCC; roots in trivial top-level SCCs are
  skipped outright.
* **Per-circuit values.**  The DFS stack carries the running latency
  sum, distance sum and backward-edge mask of the current path, so a
  closed circuit is born with its :attr:`Circuit.latency`,
  :attr:`Circuit.distance` and :attr:`Circuit.backward_keys` (one shared
  frozenset per distinct mask).  RecMII and the recurrence-subgraph
  grouping read them in O(1) per circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CircuitLimitExceeded
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import Edge
from repro.graph.traversal import strongly_connected

#: Safety cap — graphs in this domain have few circuits; a pathological
#: generator output should fail loudly rather than hang.
DEFAULT_MAX_CIRCUITS = 50_000


@dataclass(frozen=True, slots=True)
class Circuit:
    """An elementary circuit: node ring plus the chosen edge per hop.

    Equality and hashing use the ring and its edges only; the cached
    sums are functions of them.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    #: Sum of node latencies around the circuit (RecMII's numerator).
    latency: int = field(compare=False)
    #: Sum of dependence distances around the circuit (Omega).
    distance: int = field(compare=False)
    #: Keys of the loop-carried edges that close this circuit.
    backward_keys: frozenset[tuple[str, str, int, str]] = field(
        compare=False
    )


def _reach(start: int, links: list[list[int]], allowed: set[int]) -> set[int]:
    """Nodes of *allowed* reachable from *start* along *links*."""
    seen = {start}
    work = [start]
    while work:
        for nxt in links[work.pop()]:
            if nxt in allowed and nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def elementary_circuits(
    graph: DependenceGraph, max_circuits: int = DEFAULT_MAX_CIRCUITS
) -> list[Circuit]:
    """All elementary circuits of *graph* via Johnson's algorithm.

    Self-loops are returned as single-node circuits.  Node cycles are
    canonicalised per the module docstring.  Circuits are emitted in a
    deterministic order: by earliest program-order node, then by length,
    then by the sorted program-order positions of their nodes, and
    finally in Johnson's discovery order.

    Raises :class:`CircuitLimitExceeded` as soon as the self-loops plus
    the circuits found so far exceed *max_circuits*; self-loops alone
    never raise.
    """
    search = _Johnson(graph)
    count = len(search.names)
    budget = max_circuits - sum(
        (node, node) in search.hop_info for node in range(count)
    )
    component = strongly_connected(search.successors)
    members: dict[int, set[int]] = {}
    for node in range(count):
        members.setdefault(component[node], set()).add(node)

    circuits: list[Circuit] = []
    for root in range(count):
        if (root, root) in search.hop_info:
            circuits.append(search.self_loop(root))
        allowed = {node for node in members[component[root]] if node >= root}
        if len(allowed) < 2:
            continue
        scc = _reach(root, search.successors, allowed) & _reach(
            root, search.predecessors, allowed
        )
        if len(scc) < 2:
            continue
        found = search.circuits_from(root, scc, budget)
        if found is None:
            raise CircuitLimitExceeded(
                f"more than {max_circuits} elementary circuits"
            )
        budget -= len(found)
        circuits.extend(found)
    return circuits


class _Johnson:
    """Graph-wide tables for the per-root searches: int adjacency, the
    hop table, node latencies and the backward-key cache."""

    def __init__(self, graph: DependenceGraph) -> None:
        names = graph.node_names()
        position = {name: i for i, name in enumerate(names)}
        self.names = names
        self.latency = [graph.operation(name).latency for name in names]
        # Canonical (first minimal-distance) edge per hop (i, j).
        hops: dict[tuple[int, int], Edge] = {}
        for edge in graph.edges():
            hop = (position[edge.src], position[edge.dst])
            best = hops.get(hop)
            if best is None or edge.distance < best.distance:
                hops[hop] = edge
        #: ``(i, j) -> (j, edge, distance, backward bit)``; each
        #: loop-carried canonical edge owns one bit of the backward mask.
        self.hop_info: dict[tuple[int, int], tuple[int, Edge, int, int]] = {}
        self.backward_edges: list[Edge] = []
        self.successors: list[list[int]] = [[] for _ in names]
        self.predecessors: list[list[int]] = [[] for _ in names]
        for src, dst in sorted(hops):
            edge = hops[src, dst]
            bit = 0
            if edge.distance > 0:
                bit = 1 << len(self.backward_edges)
                self.backward_edges.append(edge)
            self.hop_info[src, dst] = (dst, edge, edge.distance, bit)
            if src != dst:
                self.successors[src].append(dst)
                self.predecessors[dst].append(src)
        self._keys: dict[int, frozenset[tuple[str, str, int, str]]] = {}

    def backward_keys(self, mask: int) -> frozenset[tuple[str, str, int, str]]:
        """The backward-edge key set of *mask*, one object per mask."""
        keys = self._keys.get(mask)
        if keys is None:
            keys = self._keys[mask] = frozenset(
                edge.key
                for i, edge in enumerate(self.backward_edges)
                if mask >> i & 1
            )
        return keys

    def self_loop(self, node: int) -> Circuit:
        _, edge, distance, bit = self.hop_info[node, node]
        return Circuit(
            nodes=(self.names[node],),
            edges=(edge,),
            latency=self.latency[node],
            distance=distance,
            backward_keys=self.backward_keys(bit),
        )

    def circuits_from(
        self, root: int, scc: set[int], budget: int
    ) -> list[Circuit] | None:
        """Johnson's backtracking search for the circuits through *root*
        inside *scc*, sorted by length, then by their sorted node
        positions, then in discovery order.  ``None`` once more than
        *budget* circuits turn up.

        The current path's running values live in locals; entering a
        node saves its parent's values on one stack.  Each adjacency
        entry carries its hop's edge, distance and backward bit, so
        extending the path costs a few additions.
        """
        hop_info = self.hop_info
        links = {
            node: [
                hop_info[node, succ]
                for succ in self.successors[node]
                if succ in scc
            ]
            for node in scc
        }
        names = self.names
        latency = self.latency
        keys_by_mask = self._keys
        # Node-set mask that orders rings of equal length like their
        # sorted position tuples: the earliest position weighs most.
        top = max(scc)
        weight = {node: 1 << (top - node) for node in scc}
        span = 1 << (top + 1)

        blocked = {root}
        block_map: dict[int, set[int]] = {node: set() for node in scc}
        name_path = [names[root]]
        edge_path: list[Edge] = []
        found: list[Circuit] = []
        order_keys: list[int] = []
        saved: list[tuple] = []
        # The current frame: its node, unexplored hop count, whether a
        # circuit closed below it, and the path's latency sum, distance
        # sum, backward mask and node-set mask.
        node = root
        neighbors = links[root]
        pending = len(neighbors)
        closed = False
        lat, dist, mask, nodes = latency[root], 0, 0, weight[root]

        while True:
            if pending:
                # Successors are explored from the last program-order
                # position down.
                pending -= 1
                succ, edge, distance, bit = neighbors[pending]
                if succ == root:
                    if len(found) >= budget:
                        return None
                    keys = keys_by_mask.get(mask | bit)
                    if keys is None:
                        keys = self.backward_keys(mask | bit)
                    found.append(
                        Circuit(
                            nodes=tuple(name_path),
                            edges=(*edge_path, edge),
                            latency=lat,
                            distance=dist + distance,
                            backward_keys=keys,
                        )
                    )
                    order_keys.append(len(name_path) * span - nodes)
                    closed = True
                elif succ not in blocked:
                    saved.append((
                        node, neighbors, pending, closed,
                        lat, dist, mask, nodes,
                    ))
                    blocked.add(succ)
                    name_path.append(names[succ])
                    edge_path.append(edge)
                    node = succ
                    neighbors = links[succ]
                    pending = len(neighbors)
                    closed = False
                    lat += latency[succ]
                    dist += distance
                    mask |= bit
                    nodes |= weight[succ]
                continue
            if closed:
                work = [node]
                while work:
                    current = work.pop()
                    if current in blocked:
                        blocked.discard(current)
                        work.extend(block_map[current])
                        block_map[current] = set()
            else:
                for succ, _, _, _ in neighbors:
                    block_map[succ].add(node)
            if not saved:
                break
            name_path.pop()
            edge_path.pop()
            child_closed = closed
            node, neighbors, pending, closed, lat, dist, mask, nodes = (
                saved.pop()
            )
            closed = closed or child_closed

        order = sorted(range(len(found)), key=order_keys.__getitem__)
        return [found[i] for i in order]
