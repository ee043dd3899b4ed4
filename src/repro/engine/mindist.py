"""Pure, vectorized MinDist solving.

``mindist[u][v]`` is the maximum, over all dependence paths from ``u`` to
``v``, of ``sum(latency(x) for x on the path except v) - II * sum(delta)``
— the minimum number of cycles ``v`` must issue after ``u``.  At a
feasible II (``II >= RecMII``) every dependence cycle has non-positive
weight, so Floyd–Warshall converges; a positive diagonal entry flags an
infeasible II.

The edge weights are an affine function of the II: ``W(II) = L - II*Δ``
per edge.  :func:`factorise` therefore splits a graph **once** into
per-edge index/latency/distance arrays, and :func:`solve` assembles
``W(II)`` vectorized and runs one Floyd–Warshall sweep with NO_PATH
saturation.  ``solve`` keeps no state: memoization and the incremental
II+1 advance live in :class:`repro.engine.sweep.MinDistSweep`, which
every scheduler reaches through its
:class:`~repro.engine.session.SchedulingSession`.  The pure solve is
also the reference the sweep's cross-check and the tests compare
against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.graph.ddg import DependenceGraph

#: Sentinel for "no path" — avoids -inf arithmetic warnings.
NO_PATH = -(10**9)

#: Entries at or below this threshold mean "no constraint".
_NO_PATH_CUTOFF = NO_PATH // 2


def graph_fingerprint(graph: DependenceGraph) -> tuple:
    """Structural identity of a graph: operations and edge keys.

    Covers every operation field that influences scheduling or the
    derived metrics (latency for MinDist, opclass for resource binding,
    ``produces_value`` for lifetimes/MaxLive), so two graphs with equal
    fingerprints schedule identically on the same machine.  The sweep
    uses it to notice a mutated graph and the parallel experiment runner
    for per-loop result caching.
    """
    return (
        tuple(
            (op.name, op.latency, op.opclass, op.produces_value)
            for op in graph.operations()
        ),
        tuple(sorted(
            (edge.src, edge.dst, edge.distance, edge.kind.value)
            for edge in graph.edges()
        )),
    )


def fingerprint_digest(graph: DependenceGraph) -> str:
    """Stable hex content-address of a graph's structural fingerprint.

    Two graphs share a digest exactly when :func:`graph_fingerprint`
    says they schedule identically, so the digest is usable as a durable
    cache key (the artifact store) and as a wire-safe graph identity.
    """
    canonical = json.dumps(
        graph_fingerprint(graph), separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class _GraphFactors:
    """II-independent factorisation of one graph.

    ``W(II)`` for every edge is ``lat - II * delta``; self-dependences
    are kept apart because they only feed the feasibility check, never
    the matrix.
    """

    names: list[str]
    src: np.ndarray
    dst: np.ndarray
    lat: np.ndarray
    delta: np.ndarray
    self_lat: np.ndarray
    self_delta: np.ndarray


def factorise(graph: DependenceGraph) -> _GraphFactors:
    """Split *graph* into the per-edge arrays :func:`solve` consumes."""
    names = graph.node_names()
    index = {name: i for i, name in enumerate(names)}
    src: list[int] = []
    dst: list[int] = []
    lat: list[int] = []
    delta: list[int] = []
    self_lat: list[int] = []
    self_delta: list[int] = []
    for edge in graph.edges():
        i, j = index[edge.src], index[edge.dst]
        latency = graph.operation(edge.src).latency
        if i == j:
            self_lat.append(latency)
            self_delta.append(edge.distance)
        else:
            src.append(i)
            dst.append(j)
            lat.append(latency)
            delta.append(edge.distance)
    return _GraphFactors(
        names=names,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        lat=np.asarray(lat, dtype=np.int64),
        delta=np.asarray(delta, dtype=np.int64),
        self_lat=np.asarray(self_lat, dtype=np.int64),
        self_delta=np.asarray(self_delta, dtype=np.int64),
    )


def solve(
    factors: _GraphFactors, ii: int
) -> tuple[np.ndarray, list[str]] | None:
    """The MinDist matrix at *ii*, or ``None`` if *ii* is infeasible.

    Returns ``(matrix, names)`` with rows/columns indexed by *names*
    (program order).  The matrix is read-only; ``matrix[i, j] <=
    NO_PATH / 2`` means "no constraint".
    """
    if factors.self_lat.size and np.any(
        factors.self_lat - factors.self_delta * ii > 0
    ):
        return None  # self-dependence violated at this II
    n = len(factors.names)
    dist = np.full((n, n), NO_PATH, dtype=np.int64)
    if factors.src.size:
        weights = factors.lat - factors.delta * ii
        np.maximum.at(dist, (factors.src, factors.dst), weights)

    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        np.maximum(dist, via, out=dist)
        # Keep "no path" saturated so chained NO_PATH values cannot
        # creep upward into the feasible range.
        dist[dist < _NO_PATH_CUTOFF] = NO_PATH

    if np.any(np.diag(dist) > 0):
        return None
    dist.setflags(write=False)
    return dist, factors.names


def warm_start() -> None:
    """Exercise the engine's hot code paths once, in this process.

    Process-pool backends (:mod:`repro.service.procpool`,
    :mod:`repro.experiments.procmap`) call this from their worker
    initializers so the first *real* request does not pay the one-time
    costs: importing the scheduler stack, materialising the lazy
    registry, and the first NumPy ufunc dispatch of the plain and
    slope-augmented Floyd–Warshall sweeps.  The probe runs in one
    throwaway :class:`~repro.engine.session.SchedulingSession`, so no
    state outlives the call.
    """
    from repro.engine.session import SchedulingSession
    from repro.graph.builder import GraphBuilder
    from repro.machine.configs import motivating_machine
    from repro.schedulers.registry import _factories

    _factories()  # import every scheduler (incl. the lazy HRMS/portfolio)
    graph = (
        GraphBuilder("engine-warmup")
        .op("a")
        .op("b", deps=("a",))
        .edge("b", "a", distance=1)
        .build()
    )
    session = SchedulingSession(graph, motivating_machine(1))
    session.mindist(1)
    session.cyclic_asap(2)
