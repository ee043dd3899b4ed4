"""Parity of the folding circuit enumeration and its group consumers.

* A hypothesis property compares :func:`elementary_circuits` with a
  brute-force enumerator over small graphs (parallel edges of different
  distances and kinds, self-loops, several SCCs).  RecMII and the
  recurrence subgraphs are computed from the folded groups of a fresh
  enumeration, before any circuit is built, and compared with the same
  quantities recomputed from the brute-force circuits' edges; so are the
  circuit cap and the zero-distance message.
* The request path (``compute_mii`` and reading ``recmii`` and
  ``subgraphs``) builds no :class:`Circuit`; reading ``circuits`` builds
  each one once.
* A pinned digest of :func:`compute_mii` output over the bundled kernels,
  every QA diversity profile and a family of dense random graphs holds
  the circuit order, RecMII and every subgraph's keys, nodes, RecMII and
  ordering nodes to the values the previous enumerator produced.
* The typed error paths keep their thresholds and messages.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CircuitLimitExceeded,
    GraphError,
    ZeroDistanceCycleError,
)
from repro.graph.circuits import Circuit, elementary_circuits
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import DependenceKind, Edge
from repro.graph.ops import FADD, FMUL, Operation
from repro.machine.configs import perfect_club_machine
from repro.mii.analysis import compute_mii
from repro.mii.recmii import compute_recmii
from repro.mii.recurrences import find_recurrence_subgraphs

MACHINE = perfect_club_machine()


def build_graph(latencies, edges, name="g"):
    """A graph with ops ``n0..`` in program order; no validation, so
    zero-distance cycles survive to the MII analysis."""
    graph = DependenceGraph(name)
    for i, latency in enumerate(latencies):
        graph.add_operation(
            Operation(f"n{i}", latency, FADD if i % 2 else FMUL)
        )
    for src, dst, distance, kind in edges:
        graph.add_edge(Edge(f"n{src}", f"n{dst}", distance, kind))
    return graph


def dense_graph(seed: int) -> DependenceGraph:
    """2–9 ops, up to four edges per op in both directions; backward
    edges are rarely distance 0, so a few graphs hold a zero-distance
    cycle."""
    rng = random.Random(f"dense-{seed}")
    graph = DependenceGraph(f"dense-{seed}")
    n = rng.randint(2, 9)
    names = [f"n{i}" for i in range(n)]
    for i, name in enumerate(names):
        graph.add_operation(
            Operation(name, rng.choice((1, 2, 3, 5)), FADD if i % 2 else FMUL)
        )
    for _ in range(rng.randint(n, 4 * n)):
        a, b = rng.choice(names), rng.choice(names)
        kind = rng.choice((DependenceKind.REGISTER, DependenceKind.MEMORY))
        forward = names.index(a) < names.index(b)
        low = 0 if forward or rng.random() < 0.02 else 1
        graph.add_edge(Edge(a, b, rng.randint(low, 3), kind))
    return graph


# ----------------------------------------------------------------------
# Brute force
# ----------------------------------------------------------------------
class Ring(NamedTuple):
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]


def brute_force_circuits(graph: DependenceGraph):
    """Every elementary circuit as a :class:`Ring`: each node ring
    starts at its earliest node and takes, per hop, the first
    minimal-distance edge in out-edge order."""
    names = graph.node_names()
    position = {name: i for i, name in enumerate(names)}

    def hop(src, dst):
        best = None
        for edge in graph.out_edges(src):
            if edge.dst != dst:
                continue
            if best is None or edge.distance < best.distance:
                best = edge
        return best

    found = set()
    for root in names:
        later = [n for n in names if position[n] > position[root]]
        for size in range(0, len(later) + 1):
            for rest in itertools.permutations(later, size):
                ring = (root, *rest)
                edges = tuple(
                    hop(ring[i], ring[(i + 1) % len(ring)])
                    for i in range(len(ring))
                )
                if all(edge is not None for edge in edges):
                    found.add(Ring(ring, edges))
    return found


def order_key(graph, circuit):
    position = {name: i for i, name in enumerate(graph.node_names())}
    places = sorted(position[n] for n in circuit.nodes)
    return (places[0], len(places), tuple(places))


def reference_subgraphs(graph, circuits):
    """The §3.2 grouping recomputed from each circuit's edges, with
    first-appearance node lists (the pre-cache formulation)."""
    position = {name: i for i, name in enumerate(graph.node_names())}
    groups: dict[frozenset, dict] = {}
    for circuit in circuits:
        key = frozenset(e.key for e in circuit.edges if e.distance > 0)
        group = groups.setdefault(key, {"nodes": [], "recmii": []})
        for name in circuit.nodes:
            if name not in group["nodes"]:
                group["nodes"].append(name)
        latency = sum(graph.operation(n).latency for n in circuit.nodes)
        distance = sum(e.distance for e in circuit.edges)
        group["recmii"].append(math.ceil(latency / distance))
    rows = [
        (key, sorted(g["nodes"], key=position.__getitem__), max(g["recmii"]))
        for key, g in groups.items()
    ]
    rows.sort(key=lambda row: (-row[2], position[row[1][0]]))
    return rows


graph_strategy = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 6), min_size=n, max_size=n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 3),
                st.sampled_from(
                    (DependenceKind.REGISTER, DependenceKind.MEMORY)
                ),
            ),
            max_size=3 * n,
        ),
    )
)


class TestBruteForceParity:
    @given(graph_strategy)
    @settings(max_examples=200, deadline=None)
    def test_enumeration_and_consumers_match_brute_force(self, spec):
        latencies, edges = spec
        graph = build_graph(latencies, edges)
        brute = brute_force_circuits(graph)
        position = {name: i for i, name in enumerate(graph.node_names())}

        # The consumers read only the folded groups of a fresh result.
        fresh = elementary_circuits(graph)
        assert len(fresh) == len(brute)
        zero_roots = sorted(
            (c.nodes[0] for c in brute if not sum(e.distance for e in c.edges)),
            key=position.__getitem__,
        )
        if zero_roots:
            message = (
                f"circuit through {zero_roots[0]!r} has zero total distance"
            )
            for analyse in (compute_recmii, find_recurrence_subgraphs):
                with pytest.raises(ZeroDistanceCycleError) as info:
                    analyse(graph, fresh)
                assert str(info.value) == message
        else:
            recmii = compute_recmii(graph, fresh)
            subgraphs = find_recurrence_subgraphs(graph, fresh)

        # Now build the circuits and hold them to the brute force.
        circuits = list(fresh)
        assert {(c.nodes, c.edges) for c in circuits} == brute
        assert len(circuits) == len(brute)
        # One group per backward-edge set, where the set first appears.
        assert [g.backward_keys for g in fresh.groups] == list(
            dict.fromkeys(c.backward_keys for c in circuits)
        )
        keys = [order_key(graph, c) for c in circuits]
        assert keys == sorted(keys)
        for circuit in circuits:
            assert circuit.latency == sum(
                graph.operation(n).latency for n in circuit.nodes
            )
            assert circuit.distance == sum(e.distance for e in circuit.edges)
            assert circuit.backward_keys == frozenset(
                e.key for e in circuit.edges if e.distance > 0
            )

        self_loops = sum(len(c.nodes) == 1 for c in brute)
        if len(brute) > self_loops:
            with pytest.raises(CircuitLimitExceeded) as info:
                elementary_circuits(graph, max_circuits=len(brute) - 1)
            assert str(info.value) == (
                f"more than {len(brute) - 1} elementary circuits"
            )
        assert len(elementary_circuits(graph, max_circuits=len(brute))) == (
            len(brute)
        )

        if zero_roots:
            return
        # Brute-force rings in enumeration order: the order key, then
        # Johnson's discovery order among rings on one node set.
        rank = {(c.nodes, c.edges): i for i, c in enumerate(circuits)}
        ordered = sorted(brute, key=rank.__getitem__)
        assert recmii == max(
            (
                math.ceil(
                    sum(graph.operation(n).latency for n in c.nodes)
                    / sum(e.distance for e in c.edges)
                )
                for c in brute
            ),
            default=1,
        )
        assert compute_recmii(graph) == recmii
        assert [
            (s.backward_edge_keys, s.nodes, s.recmii) for s in subgraphs
        ] == reference_subgraphs(graph, ordered)
        for subgraph in subgraphs:
            assert all(
                c.backward_keys == subgraph.backward_edge_keys
                for c in subgraph.circuits
            )
        assert sum(len(s.circuits) for s in subgraphs) == len(circuits)

    def test_shared_backward_key_objects(self):
        """Circuits with one backward-edge set share one frozenset."""
        graph = build_graph(
            [1, 1, 1, 1],
            [
                (0, 1, 0, DependenceKind.REGISTER),
                (0, 2, 0, DependenceKind.REGISTER),
                (1, 3, 0, DependenceKind.REGISTER),
                (2, 3, 0, DependenceKind.REGISTER),
                (3, 0, 1, DependenceKind.REGISTER),
            ],
        )
        first, second = elementary_circuits(graph)
        assert first.backward_keys is second.backward_keys


# ----------------------------------------------------------------------
# No circuit objects on the request path
# ----------------------------------------------------------------------
def chain_of_blocks(blocks: int = 3, size: int = 4) -> DependenceGraph:
    """*blocks* complete recurrence blocks of *size* ops (distance-1
    backward edges), each feeding the next through one forward edge:
    ``blocks * 20`` circuits at the default size, one group per
    backward-edge set."""
    edges = []
    for block in range(blocks):
        base = block * size
        edges += [
            (base + i, base + j, 0 if i < j else 1, DependenceKind.REGISTER)
            for i in range(size)
            for j in range(size)
            if i != j
        ]
        if block:
            edges.append((base - 1, base, 0, DependenceKind.REGISTER))
    return build_graph([1, 2, 3, 1] * blocks, edges)


class TestLazyCircuits:
    def test_request_path_builds_no_circuits(self, monkeypatch):
        built = []
        construct = Circuit.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Circuit, "__init__", counting)
        graph = chain_of_blocks()
        result = compute_mii(graph, MACHINE)
        assert result.recmii == 7
        assert result.subgraphs and all(s.nodes for s in result.subgraphs)
        assert len(result.circuits) == 60
        assert built == []

        circuits = list(result.circuits)
        assert len(built) == len(circuits) == 60
        assert result.circuits == circuits
        assert sum(len(s.circuits) for s in result.subgraphs) == 60
        assert len(built) == 60, "the circuit list is built once"


# ----------------------------------------------------------------------
# Pinned digest
# ----------------------------------------------------------------------
#: ``compute_mii`` summary digest over the graphs of :func:`_digest_graphs`,
#: recorded with the previous (name-based, per-root Tarjan) enumerator.
MII_DIGEST = "78885a721418e84c9eae9a33d7ad700a64e94e72ffca36dcc6c215ef3c4ace5a"


def _digest_graphs():
    from repro.frontend.kernels import kernel_names, kernel_source
    from repro.frontend.pipeline import compile_source, profile_by_name
    from repro.qa.profiles import fuzz_profiles

    for kernel in kernel_names():
        for lowering in ("perfect_club", "govindarajan"):
            yield compile_source(
                kernel_source(kernel),
                name=kernel,
                profile=profile_by_name(lowering),
            ).graph
    for profile in fuzz_profiles():
        for seed in range(100):
            yield profile.build(seed)
    for seed in range(200):
        yield dense_graph(seed)


def _mii_summary(graph):
    try:
        result = compute_mii(graph, MACHINE)
    except GraphError as exc:
        return [type(exc).__name__, str(exc)]
    return [
        result.recmii,
        [
            [list(c.nodes), [list(e.key) for e in c.edges]]
            for c in result.circuits
        ],
        [
            [
                sorted(map(list, s.backward_edge_keys)),
                s.nodes,
                s.recmii,
                s.ordering_nodes,
            ]
            for s in result.subgraphs
        ],
    ]


def test_pinned_mii_digest():
    hasher = hashlib.sha256()
    graphs = 0
    for graph in _digest_graphs():
        hasher.update(json.dumps([graph.name, _mii_summary(graph)]).encode())
        graphs += 1
    assert graphs == 32 * 2 + 6 * 100 + 200
    assert hasher.hexdigest() == MII_DIGEST


# ----------------------------------------------------------------------
# Typed error paths
# ----------------------------------------------------------------------
def _complete_graph(n: int, self_loops: int) -> DependenceGraph:
    """Complete digraph on *n* ops (distance-1 backward edges) plus
    self-loops on the first *self_loops* ops."""
    edges = [
        (i, j, 0 if i < j else 1, DependenceKind.REGISTER)
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    edges += [(i, i, 1, DependenceKind.REGISTER) for i in range(self_loops)]
    return build_graph([1] * n, edges)


class TestErrorPaths:
    def test_errors_are_permanent_graph_errors(self):
        assert issubclass(CircuitLimitExceeded, GraphError)
        assert issubclass(ZeroDistanceCycleError, GraphError)

    @pytest.mark.parametrize("self_loops", [0, 1, 3])
    def test_circuit_cap_counts_self_loops_first(self, self_loops):
        # K4 has 20 elementary circuits of two or more nodes.
        graph = _complete_graph(4, self_loops)
        total = 20 + self_loops
        assert len(elementary_circuits(graph, max_circuits=total)) == total
        with pytest.raises(CircuitLimitExceeded) as info:
            elementary_circuits(graph, max_circuits=total - 1)
        assert str(info.value) == (
            f"more than {total - 1} elementary circuits"
        )
        if self_loops:
            # Fewer slots than self-loops: the first other circuit raises.
            with pytest.raises(CircuitLimitExceeded):
                elementary_circuits(graph, max_circuits=self_loops - 1)

    def test_self_loops_alone_never_raise(self):
        graph = build_graph(
            [1, 2, 3],
            [(i, i, 1, DependenceKind.REGISTER) for i in range(3)],
        )
        assert len(elementary_circuits(graph, max_circuits=0)) == 3

    def test_default_cap_is_enforced(self):
        # K9 has 125,664 elementary circuits, past the 50,000 cap.
        with pytest.raises(CircuitLimitExceeded) as info:
            elementary_circuits(_complete_graph(9, 0))
        assert str(info.value) == "more than 50000 elementary circuits"

    def test_zero_distance_circuit_message(self):
        # n0 closes a legal self-loop first; the n1 <-> n2 ring is the
        # first zero-distance circuit in enumeration order, ahead of the
        # n3 <-> n4 ring.
        graph = build_graph(
            [1, 1, 1, 1, 1],
            [
                (0, 0, 1, DependenceKind.REGISTER),
                (1, 2, 0, DependenceKind.REGISTER),
                (2, 1, 0, DependenceKind.MEMORY),
                (2, 1, 0, DependenceKind.REGISTER),
                (3, 4, 0, DependenceKind.REGISTER),
                (4, 3, 0, DependenceKind.REGISTER),
            ],
        )
        for analyse in (
            lambda: compute_recmii(graph),
            lambda: compute_mii(graph, MACHINE),
        ):
            with pytest.raises(ZeroDistanceCycleError) as info:
                analyse()
            assert str(info.value) == (
                "circuit through 'n1' has zero total distance"
            )
