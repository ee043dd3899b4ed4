"""The paper's worked examples, reconstructed from the narrative.

Three graphs:

* :func:`motivating_example` — Section 2 / Figure 1.  The printed figure is
  garbled in the archival scan, but the scheduling walk-through (its
  placements and its per-method register counts) pins the structure
  down uniquely: seven operations A–G of latency 2 on four
  general-purpose units, where C and G are stores.  With
  this graph the library reproduces the paper's numbers exactly — 8
  registers for Top-Down, 7 for Bottom-Up, 6 for HRMS, with HRMS placing
  A@0, B@2, C@4, D@4, E@5, F@7, G@9 at II = 2.

* :func:`figure7_graph` — the recurrence-free ordering walk-through of
  Section 3.1.  The pre-ordering must emit
  ``A, C, G, H, D, J, I, E, B, F``.

* :func:`figure10_graph` — the two-recurrence walk-through of Section 3.2.
  The pre-ordering must emit
  ``A, C, D, F, I, G, J, M, H, E, B, L, K``.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.ddg import DependenceGraph
from repro.graph.ops import GENERIC


def motivating_example() -> DependenceGraph:
    """Figure 1's dependence graph (values V1, V2, V4, V5, V6).

    A produces V1 (used by B); B produces V2 (used by C and D); C is a
    store (hence no V3); D produces V4 and E produces V5 (both used by F);
    F produces V6, consumed by the store G.
    """
    builder = GraphBuilder("motivating")
    for name in "ABCDEFG":
        builder.op(
            name,
            GENERIC,
            latency=2,
            produces_value=name not in ("C", "G"),
        )
    return (
        builder.edge("A", "B")
        .edge("B", "C")
        .edge("B", "D")
        .edge("D", "F")
        .edge("E", "F")
        .edge("F", "G")
        .build()
    )


#: The node order Figure 2's Top-Down scheduler uses (program order).
MOTIVATING_PROGRAM_ORDER = ["A", "B", "C", "D", "E", "F", "G"]

#: The pre-ordering the paper derives for the motivating example.
MOTIVATING_HRMS_ORDER = ["A", "B", "C", "D", "F", "E", "G"]

#: The paper's HRMS placement (Figure 4a) at II = 2.
MOTIVATING_HRMS_SCHEDULE = {
    "A": 0,
    "B": 2,
    "C": 4,
    "D": 4,
    "E": 5,
    "F": 7,
    "G": 9,
}

#: Register requirements reported in Section 2 (Figures 2d, 3d, 4d).
MOTIVATING_REGISTERS = {"topdown": 8, "bottomup": 7, "hrms": 6}


def figure7_graph() -> DependenceGraph:
    """Section 3.1's ordering example (no recurrences)."""
    builder = GraphBuilder("figure7")
    for name in "ABCDEFGHIJ":
        builder.op(name, GENERIC, latency=1)
    return (
        builder.edge("A", "C")
        .edge("C", "G")
        .edge("C", "H")
        .edge("D", "H")
        .edge("G", "J")
        .edge("B", "J")
        .edge("I", "J")
        .edge("B", "E")
        .edge("E", "I")
        .edge("F", "I")
        .build()
    )


#: The ordering Section 3.1 derives step by step for Figure 7.
FIGURE7_ORDER = ["A", "C", "G", "H", "D", "J", "I", "E", "B", "F"]


def figure10_graph() -> DependenceGraph:
    """Section 3.2's ordering example (two recurrence subgraphs).

    Recurrence {A, C, D, F} (RecMII 4) outranks {G, J, M} (RecMII 3);
    node I connects them; H, E, B, L, K hang off the reduced hypernode.
    """
    builder = GraphBuilder("figure10")
    for name in "ABCDEFGHIJKLM":
        builder.op(name, GENERIC, latency=1)
    return (
        builder.edge("A", "C")
        .edge("C", "D")
        .edge("D", "F")
        .edge("F", "A", distance=1)
        .edge("G", "J")
        .edge("J", "M")
        .edge("M", "G", distance=1)
        .edge("D", "I")
        .edge("I", "G")
        .edge("M", "H")
        .edge("E", "H")
        .edge("B", "E")
        .edge("B", "L")
        .edge("L", "K")
        .build()
    )


#: The ordering Section 3.2 derives step by step for Figure 10.
FIGURE10_ORDER = [
    "A", "C", "D", "F", "I", "G", "J", "M", "H", "E", "B", "L", "K",
]
