"""Incremental MinDist across an upward II sweep.

The schedulers' II search solves MinDist at ``mii, mii+1, …`` even
though the edge weights are an affine function of the II
(``W(II) = L - II*Δ`` per edge).  Every MinDist entry is therefore the upper envelope of
lines with slope ``-Δ(path)``: moving from II to II+1 shifts the value
of *every* path down by exactly its distance sum.
:class:`MinDistSweep` exploits that structure:

* the first solve of a sweep is the plain condensation solve
  (:func:`repro.engine.mindist.closure` — about O(n·|E|) on nearly
  acyclic loops, so single-attempt searches pay little);
* the first *advance* (a request for ``base+1``) runs the same solve
  over the lexicographic ``(max value, min slope)`` semiring, recording
  for every pair the distance sum ``S`` of a value-maximising path;
* every later advance is O(n²) + O(n·|E|): the candidate matrix is
  ``C = D - S`` (each entry the genuine value of a known path at the
  new II, hence a pointwise lower bound on the true closure), verified
  exact by checking that no single edge and no edge relaxation
  improves any entry — if ``C`` dominates every edge relaxation it
  dominates every walk, so a verified ``C`` *is* the closure,
  bit-identical to a fresh solve by construction;
* any verification miss (slopes can go stale after repeated shifts)
  falls back to a fresh slope solve and re-bases the sweep — counted,
  never silent.

The sweep is lock-guarded and memoizes recent IIs, so concurrent
portfolio members racing the same loop share one advancing frontier
instead of each re-solving the matrix ladder.  It notices a mutated
graph in O(1) through :attr:`DependenceGraph.version
<repro.graph.ddg.DependenceGraph.version>` and then derives everything
afresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.engine.mindist import (
    NO_PATH,
    _NO_PATH_CUTOFF,
    closure,
    factorise,
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

    ``incremental=False`` disables the advance path: every miss is a
    fresh whole-graph Floyd–Warshall (:func:`repro.engine.mindist.solve`),
    the baseline the ``engine_sweep`` perf tier measures the sweep
    against.  ``cross_check=True`` re-solves after every advance with
    that same reference and asserts element-wise equality (QA hook).
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
        #: II -> (dist, names) | None, LRU oldest-first.
        self._memo: "OrderedDict[int, tuple[np.ndarray, list[str]] | None]" = (
            OrderedDict()
        )
        self._reset()
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
            if self._graph.version != self._version:
                self._reset()
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
    def _reset(self) -> None:
        """Derive everything afresh from the graph as it is now: on
        construction, and whenever the graph's ``version`` says it
        mutated under the sweep."""
        self._version = self._graph.version
        self._factors = factorise(self._graph)
        self._memo.clear()
        self._base_ii: int | None = None
        self._base_dist: np.ndarray | None = None
        self._slope: np.ndarray | None = None
        self._reach: np.ndarray | None = None

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
        if not self._incremental:
            # The perf tier's baseline: a whole-graph Floyd–Warshall.
            return solve(factors, ii)
        solved = closure(factors, ii, slopes=with_slopes)
        if solved is None:
            return None
        dist, slope = solved
        if with_slopes or self._base_ii is None or ii >= self._base_ii:
            self._adopt(ii, dist, slope)
        return dist, factors.names

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
