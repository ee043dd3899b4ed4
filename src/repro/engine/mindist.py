"""Pure, vectorized MinDist solving.

``mindist[u][v]`` is the maximum, over all dependence paths from ``u`` to
``v``, of ``sum(latency(x) for x on the path except v) - II * sum(delta)``
— the minimum number of cycles ``v`` must issue after ``u``.  At a
feasible II (``II >= RecMII``) every dependence cycle has non-positive
weight, so the longest paths are well defined; a positive diagonal
entry flags an infeasible II.

The edge weights are an affine function of the II: ``W(II) = L - II*Δ``
per edge.  :func:`factorise` therefore splits a graph **once** into
per-edge index/latency/distance arrays plus its strongly-connected-
component condensation, and two stateless solvers assemble ``W(II)``
vectorized:

* :func:`closure` is the production solve.  It walks the condensation
  successors first: a node on no cycle takes the best of its out-edges
  plus its successors' finished rows, and only a non-trivial SCC runs
  Floyd–Warshall, on its own block.  Dependence graphs are nearly
  acyclic, so this costs about O(n·|E|) instead of O(n³).
* :func:`solve` is one whole-graph Floyd–Warshall with NO_PATH
  saturation, kept as the O(n³) reference: the tests and the
  ``engine_sweep`` perf baseline use it.  It has :func:`closure`'s
  signature and return type, so either can stand in for the other.

Memoization lives in :meth:`SchedulingSession.mindist
<repro.engine.session.SchedulingSession.mindist>`, which every
scheduler reaches; it runs :func:`closure` once per II.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.graph.ddg import DependenceGraph
from repro.graph.traversal import strongly_connected

#: Sentinel for "no path" — avoids -inf arithmetic warnings.
NO_PATH = -(10**9)

#: Entries at or below this threshold mean "no constraint".
_NO_PATH_CUTOFF = NO_PATH // 2


def graph_fingerprint(graph: DependenceGraph) -> tuple:
    """Structural identity of a graph: operations and edge keys.

    Covers every operation field that influences scheduling or the
    derived metrics (latency for MinDist, opclass for resource binding,
    ``produces_value`` for lifetimes/MaxLive), so two graphs with equal
    fingerprints schedule identically on the same machine.  The
    parallel experiment runner uses it for per-loop result caching.
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
class _Exits:
    """Edges leaving a set of finished rows, grouped by source.

    ``sources[k]`` owns ``edges[starts[k] : starts[k + 1]]`` (global
    edge indices), so one ``reduceat`` folds every group.
    """

    sources: np.ndarray
    edges: np.ndarray
    starts: np.ndarray


@dataclass
class _Component:
    """One non-trivial SCC of the condensation.

    ``members`` are global node indices.  The intra-component edges are
    in local (member-position) indices, so the block closure runs on a
    ``|C| x |C|`` matrix, and so are the sources of ``exits``.
    """

    members: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    lat: np.ndarray
    delta: np.ndarray
    exits: _Exits


@dataclass
class _Level:
    """Components whose successor components all sit in earlier levels.

    ``trivial`` holds the single-node components that have an out-edge
    (sources are global node indices); they are solved together.
    """

    trivial: _Exits
    components: list[_Component]


@dataclass
class _GraphFactors:
    """II-independent factorisation of one graph.

    ``W(II)`` for every edge is ``lat - II * delta``; self-dependences
    are kept apart because they only feed the feasibility check, never
    the matrix.  ``component`` and ``levels`` are the SCC condensation
    :func:`closure` walks, built once per graph.
    """

    names: list[str]
    src: np.ndarray
    dst: np.ndarray
    lat: np.ndarray
    delta: np.ndarray
    self_lat: np.ndarray
    self_delta: np.ndarray
    component: np.ndarray
    levels: list[_Level]


def factorise(graph: DependenceGraph) -> _GraphFactors:
    """Split *graph* into the per-edge arrays :func:`solve` consumes,
    plus the condensation :func:`closure` walks."""
    view = graph.indexed()
    src, dst, delta = view.edge_src, view.edge_dst, view.edge_distance
    lat = view.latencies[src]
    loop = src == dst
    self_lat, self_delta = lat[loop], delta[loop]
    if self_lat.size:
        # Only then copy: a cached session otherwise shares the view's
        # read-only edge arrays instead of holding a second set.
        cross = ~loop
        src, dst, lat, delta = src[cross], dst[cross], lat[cross], delta[cross]
    component, levels = _condense(view.successors, src, dst, lat, delta)
    return _GraphFactors(
        names=list(view.names),
        src=src,
        dst=dst,
        lat=lat,
        delta=delta,
        self_lat=self_lat,
        self_delta=self_delta,
        component=component,
        levels=levels,
    )


def _condense(
    successors: tuple[tuple[int, ...], ...],
    src: np.ndarray,
    dst: np.ndarray,
    lat: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, list[_Level]]:
    """Tarjan component ids (over the graph's int adjacency) and the
    level schedule :func:`closure` runs.

    A component's level is ``1 + max(successor levels)``, 0 for sinks.
    Ids are reverse topological, so one pass over the cross edges in
    source-id order sees every successor's level final.  *src* is
    non-decreasing (edges come grouped by source in program order), so
    every edge group below stays grouped by source.
    """
    n = len(successors)
    component = np.asarray(strongly_connected(successors), dtype=np.int64)
    count = int(component.max()) + 1 if n else 0
    csrc, cdst = component[src], component[dst]
    cross = csrc != cdst
    level_of = [0] * count
    order = np.argsort(csrc[cross], kind="stable")
    for c, d in zip(csrc[cross][order].tolist(), cdst[cross][order].tolist()):
        if level_of[d] >= level_of[c]:
            level_of[c] = level_of[d] + 1
    level = np.asarray(level_of, dtype=np.int64)
    size = np.bincount(component, minlength=count)

    # Trivial components: every out-edge is an exit.  Order their edges
    # by level, then cut out the groups of each level.
    edges = np.flatnonzero(size[csrc] == 1)
    edges = edges[np.argsort(level[csrc[edges]], kind="stable")]
    heads = src[edges]
    starts = _group_starts(heads)
    depth = int(level.max()) + 1 if count else 0
    bounds = np.searchsorted(
        level[component[heads[starts]]], np.arange(depth + 1)
    )
    firsts = np.append(starts, edges.size)[bounds]
    levels = [
        _Level(
            trivial=_Exits(
                sources=heads[starts[g0:g1]],
                edges=edges[e0:e1],
                starts=starts[g0:g1] - e0,
            ),
            components=[],
        )
        for g0, g1, e0, e1 in zip(bounds, bounds[1:], firsts, firsts[1:])
    ]

    local = np.zeros(n, dtype=np.int64)
    for comp in np.flatnonzero(size > 1).tolist():
        members = np.flatnonzero(component == comp)
        local[members] = np.arange(members.size)
        outgoing = csrc == comp
        inner = np.flatnonzero(outgoing & ~cross)
        exits = np.flatnonzero(outgoing & cross)
        exit_src = local[src[exits]]
        exit_starts = _group_starts(exit_src)
        levels[level[comp]].components.append(_Component(
            members=members,
            src=local[src[inner]],
            dst=local[dst[inner]],
            lat=lat[inner],
            delta=delta[inner],
            exits=_Exits(
                sources=exit_src[exit_starts],
                edges=exits,
                starts=exit_starts,
            ),
        ))
    return component, levels


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal *keys*."""
    if not keys.size:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))


def _self_edges_infeasible(factors: _GraphFactors, ii: int) -> bool:
    return bool(factors.self_lat.size) and bool(np.any(
        factors.self_lat - factors.self_delta * ii > 0
    ))


def _floyd_warshall(
    n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Longest-path closure of the *n*-node edge list, NO_PATH-saturated."""
    dist = np.full((n, n), NO_PATH, dtype=np.int64)
    if src.size:
        np.maximum.at(dist, (src, dst), weights)
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        np.maximum(dist, via, out=dist)
        # Keep "no path" saturated so chained NO_PATH values cannot
        # creep upward into the feasible range.
        dist[dist < _NO_PATH_CUTOFF] = NO_PATH
    return dist


def solve(factors: _GraphFactors, ii: int) -> np.ndarray | None:
    """The MinDist matrix at *ii* by one whole-graph Floyd–Warshall, or
    ``None`` if *ii* is infeasible.

    Rows and columns are indexed by ``factors.names`` (program order).
    The matrix is read-only; ``matrix[i, j] <= NO_PATH / 2`` means "no
    constraint".  This O(n³) solve is the reference :func:`closure` is
    checked against.
    """
    if _self_edges_infeasible(factors, ii):
        return None  # self-dependence violated at this II
    weights = factors.lat - factors.delta * ii
    dist = _floyd_warshall(
        len(factors.names), factors.src, factors.dst, weights
    )
    if np.any(np.diag(dist) > 0):
        return None
    dist.setflags(write=False)
    return dist


def closure(factors: _GraphFactors, ii: int) -> np.ndarray | None:
    """The MinDist matrix at *ii* over the SCC condensation, or ``None``
    if *ii* is infeasible.

    The result equals :func:`solve`'s element for element and is
    read-only.

    Components are solved successors first, so every row a component
    reads is final.  Let ``R[w]`` be row ``w`` with the empty path on
    its diagonal.  A trivial component ``{v}`` takes ``dist[v] = max
    over edges (v, w) of W(v, w) + R[w]``, vectorized over all trivial
    components of one level.  A non-trivial component ``C`` runs
    Floyd–Warshall on its own block (a positive diagonal means
    infeasible), then reaches the rest of the graph through the exit
    row ``X[u]`` of each member: ``dist[v] = max over u in C of
    Cl*[v, u] + X[u]``, with ``Cl*`` the block with a zero diagonal.
    On loops whose SCCs are small this costs about O(n·|E|) instead of
    O(n³).  Nodes on no cycle keep a ``NO_PATH`` diagonal.
    """
    if _self_edges_infeasible(factors, ii):
        return None  # self-dependence violated at this II
    n = len(factors.names)
    weights = factors.lat - factors.delta * ii
    # Every row starts as R: the empty path on the diagonal.  The real
    # diagonal (the best cycle, or NO_PATH) is put back at the end.
    dist = np.full((n, n), NO_PATH, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    diag = np.full(n, NO_PATH, dtype=np.int64)
    for level in factors.levels:
        rows = level.trivial.sources
        if rows.size:
            dist[rows] = _exit_rows(factors, level.trivial, weights, dist)
            dist[rows, rows] = 0
        for comp in level.components:
            if not _close_component(factors, comp, ii, weights, dist, diag):
                return None
    np.fill_diagonal(dist, diag)
    dist.setflags(write=False)
    return dist


def _exit_rows(
    factors: _GraphFactors,
    exits: _Exits,
    weights: np.ndarray,
    dist: np.ndarray,
) -> np.ndarray:
    """``max over e = (u, w) of W(e) + R[w]`` for every source ``u`` of
    *exits*, NO_PATH-saturated."""
    edges = exits.edges
    rows = dist[factors.dst[edges]] + weights[edges, None]
    best = np.maximum.reduceat(rows, exits.starts, axis=0)
    best[best < _NO_PATH_CUTOFF] = NO_PATH
    return best


def _close_component(
    factors: _GraphFactors,
    comp: _Component,
    ii: int,
    weights: np.ndarray,
    dist: np.ndarray,
    diag: np.ndarray,
) -> bool:
    """Fill the rows of one non-trivial SCC; ``False`` if it holds a
    positive cycle."""
    members = comp.members
    block = _floyd_warshall(
        len(members), comp.src, comp.dst, comp.lat - comp.delta * ii
    )
    cycles = np.diag(block)
    if np.any(cycles > 0):
        return False
    diag[members] = cycles
    np.fill_diagonal(block, 0)
    best = np.full((len(members), dist.shape[1]), NO_PATH, dtype=np.int64)
    if comp.exits.sources.size:
        exit_rows = _exit_rows(factors, comp.exits, weights, dist)
        for k, u in enumerate(comp.exits.sources):
            np.maximum(best, block[:, u, None] + exit_rows[k], out=best)
        best[best < _NO_PATH_CUTOFF] = NO_PATH
    # Inside C the block is the answer (exits never lead back into C).
    best[:, members] = block
    dist[members] = best
    return True


def warm_start() -> None:
    """Exercise the engine's hot code paths once, in this process.

    Both process pools (the service's :mod:`repro.service.procpool`
    and :func:`repro.experiments.stats.run_study` with ``jobs > 1``)
    use this as their worker initializer, so the first *real* request
    does not pay the one-time costs: importing the scheduler stack,
    materialising the lazy registry and the machine-config catalog, and
    the first NumPy ufunc dispatch of the condensation solve
    (:func:`closure`: the probe loop has one recurrence and a node on
    no cycle).  The probe runs in one throwaway
    :class:`~repro.engine.session.SchedulingSession`, so no state
    outlives the call.
    """
    from repro.engine.session import SchedulingSession
    from repro.graph.builder import GraphBuilder
    from repro.machine.configs import canonical_machines, motivating_machine
    from repro.schedulers.registry import _factories

    _factories()  # import every scheduler (incl. the lazy HRMS/portfolio)
    canonical_machines()
    graph = (
        GraphBuilder("engine-warmup")
        .op("a")
        .op("b", deps=("a",))
        .edge("b", "a", distance=1)
        .op("c", deps=("b",))
        .op("d", deps=("c",))
        .build()
    )
    session = SchedulingSession(graph, motivating_machine(1))
    session.mindist(1)
    session.cyclic_asap(2)
