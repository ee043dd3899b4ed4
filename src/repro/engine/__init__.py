"""The scheduling-engine performance layer.

Every modulo scheduler in the library leans on the same two geometric
primitives: the all-pairs MinDist matrix (longest dependence distances at
a candidate II) and the EarlyStart/LateStart windows it induces over a
partial schedule.  The seed implementation recomputed both from scratch
inside every II attempt; this package factors the II-independent
structure out once per graph and keeps the per-II work vectorized:

* :func:`~repro.engine.mindist.closure` — the pure MinDist solve: a
  graph is factored once (:func:`~repro.engine.mindist.factorise`) into
  per-edge index/latency/distance arrays and its SCC condensation,
  ``W(II) = L - II*Δ`` is assembled vectorized, and the rows are filled
  successors first, with Floyd–Warshall only inside non-trivial SCCs —
  about O(n·|E|) on nearly acyclic loops.  It keeps no state.
  :func:`~repro.engine.mindist.solve`, one whole-graph O(n³)
  Floyd–Warshall with the same signature, is the reference it is
  checked against.
* :class:`~repro.engine.session.SchedulingSession` — one object per
  (graph, machine) pair owning the MII analysis, the MinDist memo (one
  ``closure`` per II, re-factorised when the graph mutates), and the
  per-thread attempt scratch (StartBounds, reservation tables).
  :class:`~repro.engine.session.SessionCache` maps request identities
  onto live sessions so batch submissions and portfolio races share
  them.
* :class:`~repro.engine.windows.StartBounds` — incremental, fully
  vectorized transitive EarlyStart/LateStart bounds: one O(n) NumPy
  update per placement instead of an O(n) Python loop per *query*.

There is one MinDist path: scheduler → ``session.mindist`` → ``closure``.
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
from repro.engine.windows import StartBounds

__all__ = [
    "NO_PATH",
    "SchedulingSession",
    "SessionCache",
    "StartBounds",
    "fingerprint_digest",
    "graph_fingerprint",
    "session_for",
    "shared_session_cache",
    "warm_start",
]
