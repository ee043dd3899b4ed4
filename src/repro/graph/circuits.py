"""Elementary-circuit enumeration (Johnson's algorithm).

Recurrence analysis needs every elementary circuit of the dependence graph:
RecMII is a maximum over circuits, and the pre-ordering phase groups
circuits into *recurrence subgraphs* keyed by their sets of loop-carried
("backward") edges (Section 3.2).  Neither needs the circuits themselves,
only per-group totals, so the search folds each circuit into its group the
moment it closes and builds :class:`Circuit` objects only when a caller
reads them.

Parallel edges: for a given cycle of *nodes*, the circuit that most
restricts RecMII is the one using the minimum-distance edge on every hop
(the latency sum is fixed by the nodes).  We therefore canonicalise each
node cycle to that minimal-distance edge selection; parallel edges with
larger distances are strictly less restrictive and never change the node
set of a recurrence subgraph.

The search is one pass over integer node indices (program-order
positions, read from the graph's
:class:`~repro.graph.indexed.IndexedGraph`), so the circuit count, not
per-circuit bookkeeping, sets its cost:

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
* **Fold on close.**  The DFS carries the running latency sum, distance
  sum, backward-edge mask and node-set mask of the current path.  A
  closed circuit updates one dict entry keyed by its backward mask (node
  mask OR, largest ``ceil(latency / distance)``, first appearance) and
  is otherwise forgotten: a few integer operations, no allocation.
* **Circuits on demand.**  :class:`CircuitEnumeration` knows the exact
  count and the groups.  Iterating, indexing or comparing it re-runs the
  same search once with path recording on and caches the list.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from repro.errors import CircuitLimitExceeded
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import Edge
from repro.graph.indexed import IndexedGraph
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


class CircuitGroup(NamedTuple):
    """The circuits sharing one backward-edge set, folded together."""

    #: Keys of the loop-carried edges every circuit of the group closes.
    backward_keys: frozenset[tuple[str, str, int, str]]
    #: Bit ``i`` is set when the ``i``-th node in program order lies on
    #: one of the group's circuits.
    node_mask: int
    #: ``max(1, ceil(latency / distance))`` over the group's circuits;
    #: zero-distance circuits are left out (see
    #: :attr:`CircuitEnumeration.zero_distance_root`).
    recmii: int


class CircuitEnumeration(Sequence[Circuit]):
    """The result of :func:`elementary_circuits`: a read-only sequence of
    circuits whose length and recurrence groups are known up front.

    ``len()`` costs nothing.  The first read of a circuit (iteration,
    indexing, ``==``) re-runs the search with path recording on and
    caches the list.
    """

    def __init__(
        self,
        view: IndexedGraph,
        count: int,
        groups: tuple[CircuitGroup, ...],
        zero_distance_root: str | None,
    ) -> None:
        # Only the search's input is kept, not its tables: the graph's
        # indexed view, which the graph itself shares.
        self._view = view
        self._count = count
        self._circuits: list[Circuit] | None = None
        #: Node names in program order; bit ``i`` of a group's node mask
        #: is ``names[i]``.
        self.names: tuple[str, ...] = view.names
        #: One entry per distinct backward-edge set, in the order the
        #: sets first appear in the circuit sequence.
        self.groups = groups
        #: The ring start of the first zero-distance circuit in sequence
        #: order, or ``None`` when every circuit has positive distance.
        self.zero_distance_root = zero_distance_root

    def __len__(self) -> int:
        return self._count

    def _materialised(self) -> list[Circuit]:
        if self._circuits is None:
            search = _Johnson(self._view)
            _, _, _, self._circuits = search.run(self._count, record=True)
        return self._circuits

    def __getitem__(self, index):
        return self._materialised()[index]

    def __iter__(self) -> Iterator[Circuit]:
        return iter(self._materialised())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CircuitEnumeration):
            other = other._materialised()
        return self._materialised() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"<CircuitEnumeration of {self._count} circuits in "
            f"{len(self.groups)} groups>"
        )


def _reach(
    start: int, links: tuple[tuple[int, ...], ...], allowed: set[int]
) -> set[int]:
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
) -> CircuitEnumeration:
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
    view = graph.indexed()
    count, groups, zero_root, _ = _Johnson(view).run(
        max_circuits, record=False
    )
    return CircuitEnumeration(view, count, groups, zero_root)


class _Johnson:
    """Graph-wide tables for the per-root searches: the hop table, node
    latencies and the backward-key cache, built from the graph's indexed
    view (whose int adjacency the searches walk)."""

    def __init__(self, view: IndexedGraph) -> None:
        self.view = view
        self.latency: list[int] = view.latencies.tolist()
        # Canonical (first minimal-distance) edge per hop (i, j).
        hops: dict[tuple[int, int], Edge] = {}
        for edge, hop in zip(
            view.edges, zip(view.edge_src.tolist(), view.edge_dst.tolist())
        ):
            best = hops.get(hop)
            if best is None or edge.distance < best.distance:
                hops[hop] = edge
        #: ``(i, j) -> (j, edge, distance, backward bit)``; each
        #: loop-carried canonical edge owns one bit of the backward mask.
        self.hop_info: dict[tuple[int, int], tuple[int, Edge, int, int]] = {}
        self.backward_edges: list[Edge] = []
        for src, dst in sorted(hops):
            edge = hops[src, dst]
            bit = 0
            if edge.distance > 0:
                bit = 1 << len(self.backward_edges)
                self.backward_edges.append(edge)
            self.hop_info[src, dst] = (dst, edge, edge.distance, bit)
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

    def run(
        self, max_circuits: int, record: bool
    ) -> tuple[
        int, tuple[CircuitGroup, ...], str | None, list[Circuit] | None
    ]:
        """One enumeration: ``(count, groups, zero-distance root,
        circuits)``; the circuit list is ``None`` unless *record*.

        Each root's circuits close in discovery order and are folded into
        per-root groups that remember their smallest ``(order key,
        discovery index)``.  Merging those into the graph-wide groups in
        that order (the root's self-loop first) inserts every backward
        mask where it first appears in the sorted circuit sequence.
        """
        count = len(self.view.names)
        hop_info = self.hop_info
        latency = self.latency
        budget = max_circuits - sum(
            (node, node) in hop_info for node in range(count)
        )
        component = strongly_connected(self.view.successors)
        members: dict[int, set[int]] = {}
        for node in range(count):
            members.setdefault(component[node], set()).add(node)

        total = 0
        zero_root: int | None = None
        # backward mask -> [node mask, recmii], in first-appearance order.
        groups: dict[int, list[int]] = {}
        circuits: list[Circuit] | None = [] if record else None

        def merge(mask: int, nodes: int, ratio: int) -> None:
            group = groups.get(mask)
            if group is None:
                groups[mask] = [nodes, max(1, ratio)]
            else:
                group[0] |= nodes
                if ratio > group[1]:
                    group[1] = ratio

        for root in range(count):
            loop = hop_info.get((root, root))
            if loop is not None:
                _, edge, distance, bit = loop
                total += 1
                if not distance and zero_root is None:
                    zero_root = root
                merge(
                    bit,
                    1 << root,
                    -(-latency[root] // distance) if distance else 0,
                )
                if circuits is not None:
                    circuits.append(
                        Circuit(
                            nodes=(self.view.names[root],),
                            edges=(edge,),
                            latency=latency[root],
                            distance=distance,
                            backward_keys=self.backward_keys(bit),
                        )
                    )
            allowed = {
                node for node in members[component[root]] if node >= root
            }
            if len(allowed) < 2:
                continue
            scc = _reach(root, self.view.successors, allowed) & _reach(
                root, self.view.predecessors, allowed
            )
            if len(scc) < 2:
                continue
            searched = self.circuits_from(root, scc, budget, circuits)
            if searched is None:
                raise CircuitLimitExceeded(
                    f"more than {max_circuits} elementary circuits"
                )
            closed, root_groups, zero = searched
            budget -= closed
            total += closed
            if zero and zero_root is None:
                zero_root = root
            # Per-root node masks weigh the earliest position most (bit
            # ``top - node``); the graph-wide masks use bit ``node``.
            top = max(scc)
            for mask, (reversed_nodes, ratio, _, _) in sorted(
                root_groups.items(), key=lambda item: item[1][2:]
            ):
                nodes = 0
                while reversed_nodes:
                    low = reversed_nodes & -reversed_nodes
                    nodes |= 1 << (top + 1 - low.bit_length())
                    reversed_nodes ^= low
                merge(mask, nodes, ratio)

        folded = tuple(
            CircuitGroup(self.backward_keys(mask), nodes, ratio)
            for mask, (nodes, ratio) in groups.items()
        )
        zero_name = None if zero_root is None else self.view.names[zero_root]
        return total, folded, zero_name, circuits

    def circuits_from(
        self,
        root: int,
        scc: set[int],
        budget: int,
        record: list[Circuit] | None,
    ) -> tuple[int, dict[int, list[int]], bool] | None:
        """Johnson's backtracking search for the circuits through *root*
        inside *scc*: ``(circuit count, groups, zero distance seen)``,
        or ``None`` once more than *budget* circuits turn up.

        *groups* maps a backward mask to ``[node mask, largest ratio,
        order key, discovery index]``, the last two for the group's
        earliest circuit in the sorted order (length, then sorted node
        positions, then discovery).  When *record* is a list, the
        root's circuits are appended to it in that order.

        The current path's running values live in locals; entering a
        node saves its parent's values on one stack, which also holds
        the path itself.  Each adjacency entry carries its hop's edge,
        distance and backward bit, so extending the path costs a few
        additions.
        """
        hop_info = self.hop_info
        links = {
            node: [
                hop_info[node, succ]
                for succ in self.view.successors[node]
                if succ in scc
            ]
            for node in scc
        }
        latency = self.latency
        # Node-set mask that orders rings of equal length like their
        # sorted position tuples: the earliest position weighs most.
        top = max(scc)
        weight = {node: 1 << (top - node) for node in scc}
        span = 1 << (top + 1)

        blocked = {root}
        block_map: dict[int, set[int]] = {node: set() for node in scc}
        groups: dict[int, list[int]] = {}
        found = 0
        zero = False
        rings: list[tuple] = []
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
                    if found >= budget:
                        return None
                    full = mask | bit
                    ring_distance = dist + distance
                    if ring_distance:
                        ratio = -(-lat // ring_distance)
                    else:
                        ratio = 0
                        zero = True
                    key = (len(saved) + 1) * span - nodes
                    group = groups.get(full)
                    if group is None:
                        groups[full] = [nodes, ratio, key, found]
                    else:
                        group[0] |= nodes
                        if ratio > group[1]:
                            group[1] = ratio
                        if key < group[2]:
                            group[2] = key
                            group[3] = found
                    if record is not None:
                        ring = [frame[0] for frame in saved]
                        ring.append(node)
                        rings.append(
                            (key, found, ring, edge, lat, ring_distance, full)
                        )
                    found += 1
                    closed = True
                elif succ not in blocked:
                    saved.append((
                        node, neighbors, pending, closed,
                        lat, dist, mask, nodes,
                    ))
                    blocked.add(succ)
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
            child_closed = closed
            node, neighbors, pending, closed, lat, dist, mask, nodes = (
                saved.pop()
            )
            closed = closed or child_closed

        if record is not None:
            names = self.view.names
            rings.sort(key=itemgetter(0, 1))
            for _, _, ring, edge, lat, dist, full in rings:
                record.append(
                    Circuit(
                        nodes=tuple(names[i] for i in ring),
                        edges=(
                            *(
                                hop_info[a, b][1]
                                for a, b in zip(ring, ring[1:])
                            ),
                            edge,
                        ),
                        latency=lat,
                        distance=dist,
                        backward_keys=self.backward_keys(full),
                    )
                )
        return found, groups, zero
