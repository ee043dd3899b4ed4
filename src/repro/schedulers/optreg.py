"""Optimum modulo schedules with *minimum register requirements* [7].

The paper's introduction cites two exact methods: SPILP [8], which
minimises **buffers** (reproduced in :mod:`repro.schedulers.spilp`), and
Eichenberger, Davidson & Abraham's formulation that minimises the
**register requirement itself** (MaxLive).  This module reproduces the
latter as a time-indexed MILP:

* binary ``x[v, t]`` chooses each operation's issue cycle in a finite
  horizon; dependence and modulo-resource constraints are exactly
  SPILP's;
* an integer ``e[v]`` tracks each value's lifetime end
  (``e[v] >= t_w + delta * II`` for every register consumer ``w``,
  ``e[v] >= t_v``);
* the number of live instances of ``v`` at kernel row ``r`` is
  ``floor((e_v - r - 1)/II) - floor((t_v - r - 1)/II)`` — each floor is
  linearised with an integer quotient and a bounded remainder
  (``z = II*q + b, 0 <= b < II``);
* ``R >= sum_v instances(v, r)`` for every row, and ``R`` is minimised
  (a sub-unit tie-break term keeps lifetimes compact among
  register-optimal schedules).

``R`` at the optimum equals the smallest MaxLive any schedule of this II
can achieve, which makes this scheduler the yardstick for HRMS's
register quality on small loops, the same role [7] plays in the paper's
discussion.  Cost grows quickly with ``|V| * horizon``; use it on
Table-1-sized kernels.

The time-indexed model and its unpipelined-reservation conservatism
are shared with SPILP (:mod:`repro.schedulers.exact`): the register
optimum is exact at the II returned, which can exceed the true minimum
II on unpipelined-saturated loops.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edges import DependenceKind
from repro.schedulers.exact import ExactScheduler, TimeIndexedModel


class OptRegScheduler(ExactScheduler):
    """Register-optimal modulo scheduler (MILP, Eichenberger-style)."""

    name = "optreg"

    def add_objective(self, model: TimeIndexedModel) -> None:
        graph, ii = model.graph, model.ii
        producers = [n for n in model.names if model.ops[n].produces_value]
        n_p = len(producers)
        max_quot = model.horizon // ii + 2

        # Columns after x[v, t], all integer:
        #   e[v]                    n_p        lifetime end
        #   qe[v, r], qs[v, r]      n_p * ii   floors (tie-break costs)
        #   be[v, r], bs[v, r]      n_p * ii   remainders in [0, II)
        #   R                       1          the objective
        # The sub-unit lifetime tie-break makes the solver prefer
        # compact schedules among register-optimal ones.
        tiebreak = 1.0 / (2.0 * n_p * (max_quot + 2) * ii + 1.0)
        e_base = model.add_vars(n_p, upper=model.horizon + max_quot * ii)
        qe_base = model.add_vars(n_p * ii, -max_quot, max_quot, tiebreak)
        qs_base = model.add_vars(n_p * ii, -max_quot, max_quot, -tiebreak)
        be_base = model.add_vars(n_p * ii, upper=ii - 1)
        bs_base = model.add_vars(n_p * ii, upper=ii - 1)
        r_col = model.add_vars(1, upper=n_p * (max_quot + 2), cost=1.0)

        # (4) lifetime ends: e_v >= t_w + delta*II per register consumer,
        #     and e_v >= t_v.
        for k, name in enumerate(producers):
            e_col = e_base + k
            model.add_row(
                [(e_col, 1.0)] + model.time_entries(name, -1.0), 0.0, np.inf
            )
            for edge in graph.out_edges(name):
                if edge.kind is not DependenceKind.REGISTER:
                    continue
                entries = [(e_col, 1.0)] + model.time_entries(edge.dst, -1.0)
                model.add_row(entries, float(edge.distance * ii), np.inf)

        # (5) floor linearisation: e_v - r - 1 = II*qe + be (0<=be<II),
        #     t_v - r - 1 = II*qs + bs.
        for k, name in enumerate(producers):
            for row in range(ii):
                j = k * ii + row
                model.add_row(
                    [(e_base + k, 1.0), (qe_base + j, -float(ii)),
                     (be_base + j, -1.0)],
                    float(row + 1),
                    float(row + 1),
                )
                model.add_row(
                    model.time_entries(name, +1.0)
                    + [(qs_base + j, -float(ii)), (bs_base + j, -1.0)],
                    float(row + 1),
                    float(row + 1),
                )

        # (6) R bounds every row's live count: R - sum_v (qe - qs) >= 0.
        for row in range(ii):
            entries: list[tuple[int, float]] = [(r_col, 1.0)]
            for k in range(n_p):
                entries.append((qe_base + k * ii + row, -1.0))
                entries.append((qs_base + k * ii + row, +1.0))
            model.add_row(entries, 0.0, np.inf)
