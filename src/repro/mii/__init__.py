"""Minimum initiation interval (MII) analysis.

``MII = max(ResMII, RecMII)`` where ResMII is the resource bound and RecMII
the recurrence bound (Section 2 of the paper; see Dehnert & Towle and Rau
for the classic derivations).  Recurrence circuits are identified here as a
by-product of RecMII, exactly as the paper does, and grouped into
*recurrence subgraphs* for the pre-ordering phase.
"""

from repro.mii.analysis import MIIResult, compute_mii
from repro.mii.recmii import compute_recmii
from repro.mii.recurrences import (
    RecurrenceSubgraph,
    find_recurrence_subgraphs,
    simplify_subgraph_node_lists,
)
from repro.mii.resmii import compute_resmii

__all__ = [
    "MIIResult",
    "RecurrenceSubgraph",
    "compute_mii",
    "compute_recmii",
    "compute_resmii",
    "find_recurrence_subgraphs",
    "simplify_subgraph_node_lists",
]
