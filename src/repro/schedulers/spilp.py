"""SPILP — integer-programming modulo scheduling with minimal buffers [8].

Govindarajan, Altman & Gao formulate resource-constrained software
pipelining as a time-indexed integer linear program: binary variables
``x[v, t]`` choose the issue cycle of each operation inside a finite
horizon, modulo resource constraints cap each kernel row, and integer
buffer variables ``b[v]`` upper-bound every value's lifetime in units of
II.  Minimising ``sum(b)`` yields the schedule with minimal buffer
requirements at the smallest feasible II (the driver iterates II upward,
exactly like the original).

The original used the OSL solver; we solve the identical formulation with
HiGHS through :func:`scipy.optimize.milp`.  The time-indexed model is
shared with OptReg (:mod:`repro.schedulers.exact`, which also documents
its unpipelined-reservation conservatism); this module adds only the
buffers.  The paper's observation that SPILP costs orders of magnitude
more time than the heuristics reproduces directly — one Livermore-style
loop with a long divide chain dominates the total, mirroring the
paper's Loop 23 anecdote.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edges import DependenceKind
from repro.schedulers.exact import ExactScheduler, TimeIndexedModel


class SPILPScheduler(ExactScheduler):
    """Optimal buffer-minimising modulo scheduler (MILP)."""

    name = "spilp"

    def add_objective(self, model: TimeIndexedModel) -> None:
        graph, ii = model.graph, model.ii
        producers = [n for n in model.names if model.ops[n].produces_value]
        base = model.add_vars(
            len(producers), upper=model.horizon // ii + 2, cost=1.0
        )

        # (4) buffers: II * b_v >= t_c + delta * II - t_v per consumer.
        for k, name in enumerate(producers):
            for edge in graph.out_edges(name):
                if edge.kind is not DependenceKind.REGISTER:
                    continue
                entries = [(base + k, float(ii))]
                if edge.dst != name:
                    entries += model.time_entries(name, +1.0)
                    entries += model.time_entries(edge.dst, -1.0)
                model.add_row(entries, float(edge.distance * ii), np.inf)
