"""Incremental MinDist across an upward II sweep.

The driver's II search solves MinDist at ``mii, mii+1, …`` — a fresh
O(n³) Floyd–Warshall per candidate even though the edge weights are an
affine function of the II (``W(II) = L - II*Δ`` per edge).  Every
MinDist entry is therefore the upper envelope of lines with slope
``-Δ(path)``: moving from II to II+1 shifts the value of *every* path
down by exactly its distance sum.  :class:`MinDistSweep` exploits that
structure:

* the first solve of a sweep is the plain vectorized Floyd–Warshall
  (:func:`repro.engine.mindist.solve` — single-attempt searches pay
  nothing extra);
* the first *advance* (a request for ``base+1``) runs one
  slope-augmented Floyd–Warshall over the lexicographic
  ``(max value, min slope)`` semiring, recording for every pair the
  distance sum ``S`` of a value-maximising path;
* every later advance is O(n²) + O(n·|E|): the candidate matrix is
  ``C = D - S`` (each entry the genuine value of a known path at the
  new II, hence a pointwise lower bound on the true closure), verified
  exact by checking that no single edge and no edge relaxation
  improves any entry — if ``C`` dominates every edge relaxation it
  dominates every walk, so a verified ``C`` *is* the closure,
  bit-identical to a fresh solve by construction;
* any verification miss (slopes can go stale after repeated shifts)
  falls back to a fresh slope-augmented solve and re-bases the sweep —
  counted, never silent.

The sweep is lock-guarded and memoizes recent IIs, so concurrent
portfolio members racing the same loop share one advancing frontier
instead of each re-solving the matrix ladder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.engine.mindist import (
    NO_PATH,
    _NO_PATH_CUTOFF,
    factorise,
    graph_fingerprint,
    solve,
)
from repro.graph.ddg import DependenceGraph
from repro.obs import trace

#: Matrices memoized per sweep beyond the advancing base (HRMS's second
#: directional pass and a lagging portfolio member are re-hits; a full
#: replay re-solves).
_DEFAULT_MEMO_ENTRIES = 8

#: Cache-miss sentinel (``None`` is a valid memo value: infeasible II).
_MISSING = object()


class SweepCrossCheckError(AssertionError):
    """An incremental advance disagreed with a fresh solve.

    Only raised in cross-check mode; the verification step makes this
    impossible unless the sweep itself is buggy, which is exactly what
    the hook exists to surface in QA runs.
    """


class MinDistSweep:
    """Sweeping MinDist state for one graph.

    ``solve(ii)`` matches :func:`repro.engine.mindist.solve`'s contract
    — ``(dist, names)`` read-only, or ``None`` for an infeasible II — but
    consecutive IIs are advanced incrementally instead of re-solved.

    ``incremental=False`` disables the advance path (every miss is a
    fresh plain solve); the ``engine_sweep`` perf tier uses it as the
    like-for-like baseline.  ``cross_check=True`` re-solves after every
    advance and asserts element-wise equality (QA hook).
    """

    def __init__(
        self,
        graph: DependenceGraph,
        *,
        incremental: bool = True,
        cross_check: bool = False,
        memo_entries: int = _DEFAULT_MEMO_ENTRIES,
    ) -> None:
        self._graph = graph
        self._incremental = incremental
        self._cross_check = cross_check
        self._memo_entries = max(1, memo_entries)
        self._lock = threading.Lock()
        self._fingerprint = graph_fingerprint(graph)
        self._factors = factorise(graph)
        #: II -> (dist, names) | None, LRU oldest-first.
        self._memo: "OrderedDict[int, tuple[np.ndarray, list[str]] | None]" = (
            OrderedDict()
        )
        self._base_ii: int | None = None
        self._base_dist: np.ndarray | None = None
        self._slope: np.ndarray | None = None
        self._reach: np.ndarray | None = None
        self.fresh_solves = 0
        self.incremental_steps = 0
        self.fallbacks = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    def solve(
        self, ii: int
    ) -> tuple[np.ndarray, list[str]] | None:
        """MinDist at *ii* — memoized, advanced incrementally when the
        request extends the current sweep by one II."""
        with self._lock:
            self._check_fingerprint()
            cached = self._memo.get(ii, _MISSING)
            if cached is not _MISSING:
                self.memo_hits += 1
                self._memo.move_to_end(ii)
                return cached
            result = self._solve_locked(ii)
            self._memo[ii] = result
            while len(self._memo) > self._memo_entries:
                self._memo.popitem(last=False)
            return result

    def stats(self) -> dict[str, int]:
        """Counters for the perf tier and the QA fallback tests."""
        return {
            "fresh_solves": self.fresh_solves,
            "incremental_steps": self.incremental_steps,
            "fallbacks": self.fallbacks,
            "memo_hits": self.memo_hits,
        }

    # ------------------------------------------------------------------
    def _check_fingerprint(self) -> None:
        fingerprint = graph_fingerprint(self._graph)
        if fingerprint != self._fingerprint:
            # The graph mutated under the sweep: every derived state is
            # stale, so start over from a fresh factorisation.
            self._fingerprint = fingerprint
            self._factors = factorise(self._graph)
            self._memo.clear()
            self._base_ii = None
            self._base_dist = None
            self._slope = None
            self._reach = None

    def _solve_locked(
        self, ii: int
    ) -> tuple[np.ndarray, list[str]] | None:
        factors = self._factors
        if factors.self_lat.size and np.any(
            factors.self_lat - factors.self_delta * ii > 0
        ):
            return None  # self-dependence violated: no matrix exists
        if (
            self._incremental
            and self._base_ii is not None
            and ii == self._base_ii + 1
        ):
            if self._slope is None:
                # First advance of the sweep: pay the one slope-augmented
                # solve that makes every later step O(n²).
                return self._fresh(ii, with_slopes=True)
            cand = self._advance(ii)
            if cand is not None:
                self.incremental_steps += 1
                if self._cross_check:
                    self._assert_matches_fresh(ii, cand)
                return cand, factors.names
            self.fallbacks += 1
            return self._fresh(ii, with_slopes=True)
        return self._fresh(ii, with_slopes=False)

    # ------------------------------------------------------------------
    def _fresh(
        self, ii: int, with_slopes: bool
    ) -> tuple[np.ndarray, list[str]] | None:
        self.fresh_solves += 1
        if trace.ACTIVE is None:
            return self._fresh_untraced(ii, with_slopes)
        with trace.span(
            "mindist.solve",
            ii=ii,
            ops=len(self._factors.names),
            slopes=with_slopes,
        ):
            return self._fresh_untraced(ii, with_slopes)

    def _fresh_untraced(
        self, ii: int, with_slopes: bool
    ) -> tuple[np.ndarray, list[str]] | None:
        factors = self._factors
        if with_slopes:
            solved = self._solve_with_slopes(ii)
            if solved is None:
                return None
            dist, slope = solved
            dist.setflags(write=False)
            self._adopt(ii, dist, slope)
            return dist, factors.names
        result = solve(factors, ii)
        if result is None:
            return None
        if self._base_ii is None or ii >= self._base_ii:
            self._adopt(ii, result[0], None)
        return result

    def _adopt(
        self, ii: int, dist: np.ndarray, slope: np.ndarray | None
    ) -> None:
        self._base_ii = ii
        self._base_dist = dist
        self._slope = slope
        if self._reach is None:
            # Reachability is II-invariant: paths never appear or vanish
            # as the II grows, only their values shift.
            self._reach = dist > _NO_PATH_CUTOFF

    def _advance(self, ii: int) -> np.ndarray | None:
        """``C = D - S`` shifted candidate, verified exact; ``None``
        sends the caller to the fresh-solve fallback."""
        base = self._base_dist
        slope = self._slope
        reach = self._reach
        factors = self._factors
        cand = np.where(reach, base - slope, np.int64(NO_PATH))
        if factors.src.size:
            weights = factors.lat - factors.delta * ii
            # A single edge is itself a path: the shifted candidate must
            # dominate every direct edge (rows that reach nothing are
            # not covered by the relaxation pass below).
            if np.any(weights > cand[factors.src, factors.dst]):
                return None
            # One edge-relaxation pass over every row: if no relaxation
            # improves any entry, C dominates every walk by induction on
            # path length — and every entry is a genuine path value, so
            # C is exactly the closure.
            lhs = cand[:, factors.src] + weights[None, :]
            if np.any(
                (lhs > cand[:, factors.dst]) & reach[:, factors.src]
            ):
                return None
        if np.any(np.diag(cand) > 0):
            # Cannot happen on an upward sweep (feasibility is monotone
            # in the II) — defensive: report infeasible, keep the base.
            return None
        cand.setflags(write=False)
        self._base_ii = ii
        self._base_dist = cand
        return cand

    def _assert_matches_fresh(self, ii: int, cand: np.ndarray) -> None:
        fresh = solve(self._factors, ii)
        if fresh is None or not np.array_equal(cand, fresh[0]):
            raise SweepCrossCheckError(
                f"incremental MinDist advance diverged from the fresh "
                f"solve at II={ii} for graph {self._graph.name!r}"
            )

    # ------------------------------------------------------------------
    def _solve_with_slopes(
        self, ii: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Floyd–Warshall over the lexicographic ``(max value, min
        slope)`` semiring.

        The slope of a path is its distance sum — exactly how much the
        path's value drops per unit of II.  Selecting the *minimum*
        slope among value-maximising paths keeps ``D - S`` the best
        possible lower bound at II+1 (the maximiser that decays
        slowest), which is what lets the shifted candidate stay exact
        across long sweeps.
        """
        factors = self._factors
        n = len(factors.names)
        dist = np.full((n, n), NO_PATH, dtype=np.int64)
        slope = np.zeros((n, n), dtype=np.int64)
        if factors.src.size:
            weights = factors.lat - factors.delta * ii
            np.maximum.at(dist, (factors.src, factors.dst), weights)
            # Min distance among the value-maximising parallel edges.
            big = np.iinfo(np.int64).max
            seed = np.full((n, n), big, dtype=np.int64)
            best = weights == dist[factors.src, factors.dst]
            np.minimum.at(
                seed,
                (factors.src[best], factors.dst[best]),
                factors.delta[best],
            )
            slope = np.where(seed == big, np.int64(0), seed)

        for k in range(n):
            via = dist[:, k, None] + dist[None, k, :]
            via_s = slope[:, k, None] + slope[None, k, :]
            better = via > dist
            np.copyto(dist, via, where=better)
            np.copyto(slope, via_s, where=better)
            # Equal-value paths through k with a smaller slope win the
            # tie (genuine paths only — saturated sums are below the
            # cutoff and never tie a real value).
            tie = (via == dist) & (via_s < slope) & (via > _NO_PATH_CUTOFF)
            np.copyto(slope, via_s, where=tie)
            bad = dist < _NO_PATH_CUTOFF
            if bad.any():
                dist[bad] = NO_PATH
                slope[bad] = 0

        if np.any(np.diag(dist) > 0):
            return None
        return dist, slope
