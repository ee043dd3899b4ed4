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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CircuitLimitExceeded
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import Edge

#: Safety cap — graphs in this domain have few circuits; a pathological
#: generator output should fail loudly rather than hang.
DEFAULT_MAX_CIRCUITS = 50_000


@dataclass(frozen=True)
class Circuit:
    """An elementary circuit: node ring plus the chosen edge per hop."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def latency_sum(self, graph: DependenceGraph) -> int:
        """Sum of node latencies around the circuit (RecMII's numerator).

        Latencies live on the operations, not the circuit, so the graph
        must be supplied.
        """
        return sum(graph.operation(name).latency for name in self.nodes)

    def total_distance(self) -> int:
        """Sum of dependence distances around the circuit (Omega)."""
        return sum(edge.distance for edge in self.edges)

    def backward_edges(self) -> frozenset[tuple[str, str, int, str]]:
        """Keys of the loop-carried edges that close this circuit."""
        return frozenset(
            edge.key for edge in self.edges if edge.distance > 0
        )


def _min_distance_edge(graph: DependenceGraph, src: str, dst: str) -> Edge:
    """Canonical edge for hop ``src -> dst``: minimal distance, stable tie."""
    best: Edge | None = None
    for edge in graph.out_edges(src):
        if edge.dst != dst:
            continue
        if best is None or edge.distance < best.distance:
            best = edge
    assert best is not None, f"no edge {src}->{dst}"
    return best


def elementary_circuits(
    graph: DependenceGraph, max_circuits: int = DEFAULT_MAX_CIRCUITS
) -> list[Circuit]:
    """All elementary circuits of *graph* via Johnson's algorithm.

    Self-loops are returned as single-node circuits.  Node cycles are
    canonicalised per the module docstring.  Circuits are emitted in a
    deterministic order (rooted at increasing program-order positions).
    """
    names = graph.node_names()
    position = {name: i for i, name in enumerate(names)}
    adjacency: dict[str, list[str]] = {
        name: sorted(set(graph.successors(name)), key=position.__getitem__)
        for name in names
    }

    circuits: list[Circuit] = []

    # Self-loops first (Johnson's SCC machinery below excludes them).
    for name in names:
        if name in adjacency[name]:
            edge = _min_distance_edge(graph, name, name)
            circuits.append(Circuit(nodes=(name,), edges=(edge,)))

    def strongly_connected(sub_nodes: list[str]) -> list[list[str]]:
        """Tarjan SCC restricted to *sub_nodes* (iterative)."""
        node_set = set(sub_nodes)
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        result: list[list[str]] = []
        counter = 0

        for root in sub_nodes:
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_idx = work.pop()
                if edge_idx == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recursed = False
                neighbors = [
                    succ
                    for succ in adjacency[node]
                    if succ in node_set and succ != node
                ]
                for i in range(edge_idx, len(neighbors)):
                    succ = neighbors[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recursed = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if recursed:
                    continue
                if lowlink[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1:
                        result.append(scc)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result

    def circuits_from(start: str, scc_nodes: set[str]) -> None:
        """Johnson's backtracking search rooted at *start*."""
        blocked: set[str] = set()
        block_map: dict[str, set[str]] = {n: set() for n in scc_nodes}
        path: list[str] = [start]
        blocked.add(start)
        neighbor_stack: list[list[str]] = [
            [
                succ
                for succ in adjacency[start]
                if succ in scc_nodes and succ != start
            ]
        ]
        closed_flags: list[bool] = [False]

        def unblock(node: str) -> None:
            work = [node]
            while work:
                current = work.pop()
                if current in blocked:
                    blocked.discard(current)
                    pending = block_map[current]
                    block_map[current] = set()
                    work.extend(pending)

        while neighbor_stack:
            neighbors = neighbor_stack[-1]
            node = path[-1]
            if neighbors:
                succ = neighbors.pop()
                if succ == start:
                    ring = tuple(path)
                    hop_edges = tuple(
                        _min_distance_edge(
                            graph, ring[i], ring[(i + 1) % len(ring)]
                        )
                        for i in range(len(ring))
                    )
                    circuits.append(Circuit(nodes=ring, edges=hop_edges))
                    if len(circuits) > max_circuits:
                        raise CircuitLimitExceeded(
                            f"more than {max_circuits} elementary circuits"
                        )
                    closed_flags[-1] = True
                elif succ not in blocked:
                    path.append(succ)
                    blocked.add(succ)
                    neighbor_stack.append(
                        [
                            nxt
                            for nxt in adjacency[succ]
                            if nxt in scc_nodes and nxt != succ
                        ]
                    )
                    closed_flags.append(False)
            else:
                neighbor_stack.pop()
                closed = closed_flags.pop()
                path.pop()
                if closed:
                    unblock(node)
                    if closed_flags:
                        closed_flags[-1] = True
                else:
                    for succ in adjacency[node]:
                        if succ in scc_nodes and succ != node:
                            block_map[succ].add(node)

    remaining = list(names)
    while remaining:
        sccs = strongly_connected(remaining)
        if not sccs:
            break
        # Process the SCC containing the least (program-order) node.
        sccs.sort(key=lambda scc: min(position[n] for n in scc))
        scc = sccs[0]
        scc_sorted = sorted(scc, key=position.__getitem__)
        start = scc_sorted[0]
        circuits_from(start, set(scc_sorted))
        remaining = [n for n in remaining if n != start]

    circuits.sort(
        key=lambda c: (min(position[n] for n in c.nodes), len(c.nodes),
                       tuple(sorted(position[n] for n in c.nodes)))
    )
    return circuits
