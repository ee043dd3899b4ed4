"""HRMS — the paper's primary contribution.

The algorithm splits scheduling into two phases (Section 3):

1. A **pre-ordering** phase (:mod:`repro.core.preorder`,
   :mod:`repro.core.recurrence_order`, driven by
   :func:`repro.core.ordering.hrms_order`) that emits the operations in an
   order guaranteeing each one — except recurrence closers — sees only
   previously-scheduled predecessors *or* only previously-scheduled
   successors.  It runs on one working-graph type,
   :class:`~repro.core.hypernode.HypernodeGraph`: the backward-edge-free
   component graph, reduced in place, with
   :meth:`~repro.core.hypernode.HypernodeGraph.induced` copies for the
   batches it sorts.
2. A **scheduling** phase (:mod:`repro.core.scheduler`) that places each
   operation as soon as possible when its scheduled neighbours are
   predecessors and as late as possible when they are successors, on a
   shared modulo reservation table, retrying with ``II + 1`` when a slot
   cannot be found.  The ordering is computed once per loop regardless of
   how many II values are attempted.
"""

from repro.core.hypernode import HypernodeGraph
from repro.core.ordering import hrms_order
from repro.core.paths import search_all_paths
from repro.core.preorder import pre_ordering
from repro.core.scheduler import HRMSScheduler

__all__ = [
    "HRMSScheduler",
    "HypernodeGraph",
    "hrms_order",
    "pre_ordering",
    "search_all_paths",
]
