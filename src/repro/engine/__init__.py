"""The scheduling-engine performance layer.

Every modulo scheduler in the library leans on the same two geometric
primitives: the all-pairs MinDist matrix (longest dependence distances at
a candidate II) and the EarlyStart/LateStart windows it induces over a
partial schedule.  The seed implementation recomputed both from scratch
inside every II attempt; this package factors the II-independent
structure out once per graph and keeps the per-II work vectorized:

* :func:`~repro.engine.mindist.solve` — the pure MinDist solve: a
  graph is factored once (:func:`~repro.engine.mindist.factorise`) into
  per-edge index/latency/distance arrays, ``W(II) = L - II*Δ`` is
  assembled vectorized, and one Floyd–Warshall sweep runs with NO_PATH
  saturation.  It keeps no state and is the reference every faster path
  is checked against.
* :class:`~repro.engine.sweep.MinDistSweep` — the II-sweep solver: it
  materialises MinDist once at the search's base II and advances to each
  successive II with an O(n²) shift of the (value, slope) closure plus an
  O(n·|E|) exactness verification, falling back to a fresh Floyd–Warshall
  solve whenever the shifted matrix cannot be proven exact.  Results are
  bit-identical to fresh solves by construction.
* :class:`~repro.engine.session.SchedulingSession` — one object per
  (graph, machine) pair owning the MII analysis, the sweep, and the
  per-thread attempt scratch (StartBounds, reservation tables).
  :class:`~repro.engine.session.SessionCache` maps request identities
  onto live sessions so batch submissions and portfolio races share
  them.
* :class:`~repro.engine.windows.StartBounds` — incremental, fully
  vectorized transitive EarlyStart/LateStart bounds: one O(n) NumPy
  update per placement instead of an O(n) Python loop per *query*.

There is one MinDist path: scheduler → session → sweep → ``solve``.
The matrices it returns are read-only and shared between callers;
treat them as immutable.
"""

from repro.engine.mindist import (
    NO_PATH,
    fingerprint_digest,
    graph_fingerprint,
    warm_start,
)
from repro.engine.session import (
    SchedulingSession,
    SessionCache,
    session_for,
    shared_session_cache,
)
from repro.engine.sweep import MinDistSweep, SweepCrossCheckError
from repro.engine.windows import StartBounds

__all__ = [
    "NO_PATH",
    "MinDistSweep",
    "SchedulingSession",
    "SessionCache",
    "StartBounds",
    "SweepCrossCheckError",
    "fingerprint_digest",
    "graph_fingerprint",
    "session_for",
    "shared_session_cache",
    "warm_start",
]
