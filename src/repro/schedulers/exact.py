"""The time-indexed integer program both exact schedulers solve.

SPILP (:mod:`repro.schedulers.spilp`, buffers) and OptReg
(:mod:`repro.schedulers.optreg`, registers) are one model with two
objectives.  Binary ``x[v, t]`` chooses the issue cycle ``t`` of every
operation ``v`` inside a finite horizon — the latest cyclic-ASAP finish
plus :data:`HORIZON_SLACK` IIs — and three constraint families make a
placement a modulo schedule:

1. every operation issues exactly once;
2. every dependence holds: ``t_v - t_u >= latency(u) - delta * II``;
3. no kernel row holds more reservations of a unit class than it has
   units.

:class:`ExactScheduler` builds that model, lets the subclass append its
objective's variables and rows after ``x``, solves it once with HiGHS
through :func:`scipy.optimize.milp`, and reads the start map back.

One known conservatism: constraint (3) bounds per-row *occupancy*,
which for unpipelined multi-row reservations is a relaxation of
circular-arc unit assignment — three 30-cycle arcs can saturate every
row of two units at II=45 yet admit no assignment (found by the QA
campaign, minimised in ``tests/corpus/``).  An extracted optimum that
fails the exact packer is treated as infeasible at that II and the II
search moves on, so on unpipelined-saturated loops the reported II can
exceed the true minimum when a *different* relaxed-feasible placement
at the skipped II would have packed (closing that gap needs no-good
cuts and a re-solve loop).  The objective is still optimal at the II
actually returned.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.engine.session import SchedulingSession
from repro.errors import SolverError, SolverTimeoutError
from repro.graph.ddg import DependenceGraph
from repro.machine.machine import MachineModel
from repro.schedule.verify import arcs_packable
from repro.schedulers.base import ModuloScheduler

#: IIs of slack the horizon leaves past the latest cyclic-ASAP finish.
HORIZON_SLACK = 2


class TimeIndexedModel:
    """A sparse MILP over ``x[v, t]`` with constraints (1)–(3) in place.

    Columns are added in blocks (:meth:`add_vars`), rows one at a time
    (:meth:`add_row`); the objective's blocks follow ``x`` in the order
    the subclass adds them.
    """

    def __init__(self, graph: DependenceGraph, ii: int, horizon: int) -> None:
        self.graph = graph
        self.ii = ii
        self.horizon = horizon
        self.names = graph.indexed().names
        self.ops = {name: graph.operation(name) for name in self.names}
        self._index = graph.indexed().position
        self._lower_vars: list[float] = []
        self._upper_vars: list[float] = []
        self._cost: list[float] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self.add_vars(len(self.names) * horizon)

    def add_vars(
        self,
        count: int,
        lower: float = 0.0,
        upper: float = 1.0,
        cost: float = 0.0,
    ) -> int:
        """Append *count* integer columns; returns the first one's index."""
        base = len(self._cost)
        self._lower_vars += [lower] * count
        self._upper_vars += [upper] * count
        self._cost += [cost] * count
        return base

    def add_row(
        self, entries: list[tuple[int, float]], lb: float, ub: float
    ) -> None:
        """Append the row ``lb <= sum(val * col) <= ub``."""
        row = len(self._lower)
        for col, val in entries:
            self._rows.append(row)
            self._cols.append(col)
            self._vals.append(val)
        self._lower.append(lb)
        self._upper.append(ub)

    def xcol(self, name: str, t: int) -> int:
        """Column of ``x[name, t]``."""
        return self._index[name] * self.horizon + t

    def time_entries(
        self, name: str, sign: float
    ) -> list[tuple[int, float]]:
        """The issue time ``t_v = sum(t * x[v, t])``, scaled by *sign*."""
        return [
            (self.xcol(name, t), sign * t) for t in range(1, self.horizon)
        ]

    def solve(self, time_limit: float) -> Any:
        """One :func:`~scipy.optimize.milp` call over the model."""
        n_vars = len(self._cost)
        constraint = LinearConstraint(
            sparse.csr_matrix(
                (self._vals, (self._rows, self._cols)),
                shape=(len(self._lower), n_vars),
            ),
            np.array(self._lower),
            np.array(self._upper),
        )
        return milp(
            c=np.array(self._cost),
            constraints=[constraint],
            bounds=Bounds(
                np.array(self._lower_vars), np.array(self._upper_vars)
            ),
            integrality=np.ones(n_vars),
            options={"time_limit": time_limit, "presolve": True},
        )

    def start_map(self, x: np.ndarray) -> dict[str, int]:
        """Issue cycle of every operation in the solution vector *x*."""
        horizon = self.horizon
        start: dict[str, int] = {}
        for i, name in enumerate(self.names):
            column = x[i * horizon : (i + 1) * horizon]
            start[name] = int(np.argmax(column))
        return start


def _build_model(
    session: SchedulingSession, ii: int
) -> TimeIndexedModel | None:
    """The model at *ii* with constraints (1)–(3), or ``None`` when *ii*
    is infeasible outright (below RecMII, or an unpipelined reservation
    longer than II)."""
    graph = session.graph
    machine = session.machine
    asap = session.cyclic_asap(ii)
    if asap is None:
        return None
    names = graph.node_names()
    horizon = (
        max(asap[n] + graph.operation(n).latency for n in names)
        + HORIZON_SLACK * ii
    )
    model = TimeIndexedModel(graph, ii, horizon)
    ops = model.ops

    # (1) each operation issues exactly once.
    for name in names:
        model.add_row(
            [(model.xcol(name, t), 1.0) for t in range(horizon)], 1.0, 1.0
        )

    # (2) dependences: t_v - t_u >= latency(u) - delta * II.
    for edge in graph.edges():
        if edge.src == edge.dst:
            continue  # guaranteed by II >= RecMII
        entries = model.time_entries(edge.dst, +1.0) + model.time_entries(
            edge.src, -1.0
        )
        lb = ops[edge.src].latency - edge.distance * ii
        model.add_row(entries, lb, np.inf)

    # (3) modulo resource constraints per unit class and kernel row.
    for unit in machine.unit_classes():
        members = [
            name
            for name in names
            if machine.class_for(ops[name]).name == unit.name
        ]
        if not members:
            continue
        for row in range(ii):
            entries = []
            for name in members:
                span = machine.reservation_cycles(ops[name])
                if span > ii:
                    return None  # unpipelined op cannot repeat at this II
                for t in range(horizon):
                    if any((t + j) % ii == row for j in range(span)):
                        entries.append((model.xcol(name, t), 1.0))
            model.add_row(entries, -np.inf, float(unit.count))
    return model


def _placement_packable(
    graph: DependenceGraph,
    machine: MachineModel,
    ii: int,
    start: dict[str, int],
) -> bool:
    """Exact unit assignment for an extracted placement: every unit
    class's reservations, as circular arcs of the II-cycle kernel, fit
    its units (constraint (3) alone only bounds row occupancy)."""
    by_class: dict[str, list[tuple[int, int, str]]] = {}
    for name, cycle in start.items():
        op = graph.operation(name)
        unit = machine.class_for(op)
        span = machine.reservation_cycles(op)
        by_class.setdefault(unit.name, []).append(
            (cycle % ii, span, name)
        )
    for unit in machine.unit_classes():
        arcs = by_class.get(unit.name)
        if arcs and not arcs_packable(arcs, unit.count, ii):
            return False
    return True


class ExactScheduler(ModuloScheduler):
    """Template for the MILP schedulers: the II search of
    :class:`ModuloScheduler`, one solve of the shared model per II.

    Subclasses implement :meth:`add_objective`.
    """

    def __init__(
        self,
        max_ii: int | None = None,
        time_limit: float = 120.0,
    ) -> None:
        super().__init__(max_ii=max_ii)
        self._time_limit = time_limit

    def prepare(self, session: SchedulingSession) -> None:
        return None

    @abc.abstractmethod
    def add_objective(self, model: TimeIndexedModel) -> None:
        """Append the objective's columns and rows after ``x``."""

    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        model = _build_model(session, ii)
        if model is None:
            return None
        self.add_objective(model)
        result = model.solve(self._time_limit)

        graph = session.graph
        if result.status == 2:  # infeasible at this II
            return None
        if result.x is None:
            if result.status == 1:  # iteration/time limit, no incumbent
                raise SolverTimeoutError(
                    f"{self.name} timed out on {graph.name!r} at II={ii} "
                    f"(limit {self._time_limit}s, no incumbent): "
                    f"{result.message}"
                )
            raise SolverError(
                f"{self.name} failed on {graph.name!r} at II={ii}: "
                f"{result.message}"
            )

        start = model.start_map(result.x)
        if not _placement_packable(graph, session.machine, ii, start):
            # Row occupancy relaxes unit assignment (module docstring):
            # an unrealizable placement fails this attempt so the II
            # search continues instead of crashing mid-study.
            return None
        return start
