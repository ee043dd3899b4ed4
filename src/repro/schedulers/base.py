"""Shared scheduler driver and placement arithmetic.

The II search loop is identical for every heuristic scheduler: compute the
MII, prepare whatever per-loop state the method needs (HRMS's ordering, for
example, is computed **once** and reused across II attempts — one of the
paper's selling points), then try II = MII, MII+1, … until an attempt
places every operation.

The EarlyStart/LateStart formulas of Section 3.3 are shared here too::

    EarlyStart(u) = max over scheduled preds v:  t_v + lambda_v - delta * II
    LateStart(u)  = min over scheduled succs v:  t_v - lambda_u + delta * II

(maximised/minimised per *edge*, so parallel edges and recurrence closers
are handled uniformly; self-dependences are skipped — they are satisfied by
``II >= RecMII``).
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, Sequence

from repro import cancel
from repro.engine.session import SchedulingSession
from repro.errors import IterationLimitError
from repro.obs import trace
from repro.graph.ddg import DependenceGraph
from repro.graph.ops import Operation
from repro.machine.machine import MachineModel
from repro.machine.mrt import ModuloReservationTable
from repro.mii.analysis import MIIResult
from repro.schedule.schedule import Schedule, ScheduleStats


def early_start(
    graph: DependenceGraph,
    start: dict[str, int],
    name: str,
    ii: int,
) -> int | None:
    """Earliest issue cycle allowed by already-scheduled predecessors."""
    bound: int | None = None
    for edge in graph.in_edges(name):
        if edge.src == name or edge.src not in start:
            continue
        candidate = (
            start[edge.src]
            + graph.operation(edge.src).latency
            - edge.distance * ii
        )
        bound = candidate if bound is None else max(bound, candidate)
    return bound


def late_start(
    graph: DependenceGraph,
    start: dict[str, int],
    name: str,
    ii: int,
) -> int | None:
    """Latest issue cycle allowed by already-scheduled successors."""
    latency = graph.operation(name).latency
    bound: int | None = None
    for edge in graph.out_edges(name):
        if edge.dst == name or edge.dst not in start:
            continue
        candidate = start[edge.dst] - latency + edge.distance * ii
        bound = candidate if bound is None else min(bound, candidate)
    return bound


def default_ii_limit(graph: DependenceGraph, mii: int) -> int:
    """The II every driver is guaranteed to reach without a user cap.

    A fully sequential iteration always fits once II covers the whole
    span of one iteration plus slack for modulo wrap effects — the
    bound the driver's II search stops at, the II the sequential
    fallback schedule uses, and the upper limit the QA ``ii-bounds``
    oracle holds every schedule to (one definition, three consumers).
    """
    return mii + graph.total_latency() + len(graph) + 8


#: When a two-sided operation (one with both an EarlyStart and a
#: LateStart) scans down from its LateStart, by the scheduled *direct*
#: neighbours it has: never, always, when they are successors only, or
#: when any of them is a successor.
_NEVER, _ALWAYS, _SUCCS_ONLY, _ANY_SUCC = range(4)

#: The placement ladder HRMS and SMS share at one II, one row per
#: placement rule: ``(two-sided scan-down rule, stagger)``.  A loop gets
#: the schedule of the first row that places every operation, so every
#: loop an earlier row schedules keeps its bit-identical schedule.
#:
#: Every row scans an II-long window whose limits are the exact
#: transitive bounds: upward from EarlyStart when only predecessors
#: constrain the operation, downward from LateStart when only successors
#: do, from cycle 0 when nothing does.  The rows differ only in where a
#: two-sided window (a recurrence closer) is anchored, and in the
#: stagger.
#:
#: 1. The paper's ES-upward scan.
#: 2. Every two-sided window from the LateStart end — the fallback for
#:    overlapping recurrences.  A node constrained from both sides that
#:    the ES-upward scan pins at its earliest cycle can leave a later
#:    recurrence node an *empty* window that no II increase repairs (the
#:    gap between the two bounds is II-invariant), and the upward window
#:    ``[ES, ES+II-1]`` can miss the feasible region entirely when
#:    ``LS - ES`` exceeds II.
#: 3.–4. Section 3.3's actual direction rule: scheduled direct
#:    predecessors only → ASAP, successors only → ALAP, both (recurrence
#:    closers) → up (row 3) or down (row 4).  The transitive MinDist
#:    bounds give almost every operation *both* an ES and an LS once a
#:    recurrence node is placed, so rows 1–2 scan nearly everything
#:    ASAP, and an operation whose only scheduled direct neighbours are
#:    successors gets parked at its transitive EarlyStart (often far too
#:    early).  That can freeze a later recurrence closer into a
#:    one-cycle window on an occupied row at **every** II, so the
#:    driver's II+1 retry loops to exhaustion (found by the QA fuzzing
#:    campaign; minimized in ``tests/corpus/``).
#: 5.–6. Rows 3–4 with every multi-candidate window rotated by one
#:    cycle, so boundary cycles (an op's exact EarlyStart/LateStart) are
#:    tried *last*.  An op parked at exactly its LS both freezes a
#:    successor's window and squats on the row that successor needs;
#:    staggering leaves the boundary free whenever an alternative slot
#:    exists.
_LADDER = (
    (_NEVER, 0),
    (_ALWAYS, 0),
    (_SUCCS_ONLY, 0),
    (_ANY_SUCC, 0),
    (_SUCCS_ONLY, 1),
    (_ANY_SUCC, 1),
)

#: The ladder's rows as bits of a mask: bit ``r`` is row ``r + 1``.
_ALL_ROWS = (1 << len(_LADDER)) - 1
#: The rows that rotate a multi-candidate window, by :data:`_STAGGER`.
_STAGGERED = sum(1 << r for r, (_, stagger) in enumerate(_LADDER) if stagger)
(_STAGGER,) = {stagger for _, stagger in _LADDER if stagger}


def _rows_scanning_down(succ: bool, pred: bool) -> int:
    """The rows that scan a two-sided window down from its LateStart
    when a direct successor (*succ*) / predecessor (*pred*) is placed."""
    rows = 0
    for r, (rule, _) in enumerate(_LADDER):
        if rule == _ALWAYS or (
            rule != _NEVER and succ and (rule == _ANY_SUCC or not pred)
        ):
            rows |= 1 << r
    return rows


#: :func:`_rows_scanning_down` for each ``2 * succ + pred``.
_DOWN_ROWS = tuple(
    _rows_scanning_down(succ, pred)
    for succ in (False, True)
    for pred in (False, True)
)


def _ladder_plan(
    graph: DependenceGraph, order: list[str]
) -> tuple[list[int], list[Operation], list[int]]:
    """Positions, operations and down-scanning rows of *order*.

    Which rows scan a two-sided window down at ``order[j]`` depends on
    whether ``order[:j]`` holds a direct successor or predecessor of it:
    static per order, because a walk has placed exactly ``order[:j]``
    when it reaches ``order[j]``.
    """
    view = graph.indexed()
    positions = [view.position[name] for name in order]
    placed: set[int] = set()
    down_rows = []
    for i in positions:
        succ = not placed.isdisjoint(view.successors[i])
        pred = not placed.isdisjoint(view.predecessors[i])
        down_rows.append(_DOWN_ROWS[2 * succ + pred])
        placed.add(i)
    return positions, [graph.operation(name) for name in order], down_rows


def _lowest(rows: int) -> int:
    """The lowest row of a mask, as its bit."""
    return rows & -rows


def _split(live: int, part: int) -> tuple[int, int]:
    """``(staying, leaving)`` when *part* of the *live* rows chooses
    another window: the side that holds the lowest row stays."""
    if part & _lowest(live):
        return part, live ^ part
    return live ^ part, part


def bidirectional_ladder(
    session: SchedulingSession,
    ii: int,
    order: list[str],
) -> dict[str, int] | None:
    """Place *order* at *ii* as the first row of :data:`_LADDER` that
    places every operation would, or return ``None``.

    The rows are walked together, as one group of the rows that still
    agree: rows that make the same window choice at every operation
    share one prefix of placements.  When an operation's window splits
    the group, the rows that leave wait with a checkpoint of the
    state (StartBounds, reservation table, prefix cycles) and the walk
    goes on with the part that holds the lowest row.  A group fails as a
    whole; then the waiting group with the lowest row is restored and
    resumed.  So the first group to place every operation holds the
    lowest row that succeeds, and its start map is that row's.

    HRMS and SMS (their orderings differ, their placement rule does not)
    each keep a one-line ``attempt`` of their own that calls this
    helper, so instrumentation that wraps a class's own ``attempt`` (the
    perfbench layer tracer) still sees both.
    """
    bounds = session.start_bounds(ii)
    if bounds is None:
        return None  # II below RecMII; cannot happen from the driver
    mrt = session.mrt(ii)
    positions, ops, down_rows = session.order_plan(order, _ladder_plan)
    early_start = bounds.early_start
    late_start = bounds.late_start
    n = len(order)
    live = _ALL_ROWS
    cycles: list[int] = []
    # (rows, operation index, checkpoint) per group waiting to resume.
    waiting: list[tuple[int, int, tuple]] = []
    checkpoint: tuple = ()
    checkpoint_at = -1
    j = 0
    while True:
        while j < n:
            i = positions[j]
            es = early_start(i)
            ls = late_start(i)
            leaving = 0
            if ls is None:
                window: Sequence[int] = upward_window(
                    0 if es is None else es, ii
                )
            elif es is None:
                window = downward_window(ls, ii)
            elif es > ls:
                break
            else:
                down = live & down_rows[j]
                if down and down != live and es < ls:
                    # At es == ls both windows are the one cycle es.
                    live, leaving = _split(live, down)
                    down &= live
                if down:
                    window = downward_window(ls, ii, es)
                else:
                    window = upward_window(es, ii, ls)
            staggered = live & _STAGGERED
            if staggered and len(window) > 1:
                if staggered != live:
                    live, left = _split(live, staggered)
                    leaving |= left
                    staggered &= live
                if staggered:
                    shift = _STAGGER % len(window)
                    window = [*window[shift:], *window[:shift]]
            if leaving:
                if checkpoint_at != j:
                    checkpoint = (
                        bounds.checkpoint(), mrt.checkpoint(), tuple(cycles)
                    )
                    checkpoint_at = j
                waiting.append((leaving, j, checkpoint))
            cycle = mrt.scan_place(ops[j], window)
            if cycle is None:
                break
            cycles.append(cycle)
            bounds.place(i, cycle)
            j += 1
        else:
            return dict(zip(order, cycles))
        if not waiting:
            return None
        # Every row of the failed group failed; resume the waiting group
        # that holds the lowest row.
        resume = min(range(len(waiting)), key=lambda k: _lowest(waiting[k][0]))
        live, j, checkpoint = waiting.pop(resume)
        saved_bounds, saved_mrt, saved_cycles = checkpoint
        bounds.restore(saved_bounds)
        mrt.restore(saved_mrt)
        cycles = list(saved_cycles)
        checkpoint_at = j


def direct_edge_pass(
    session: SchedulingSession,
    ii: int,
    order: list[str],
    window: Callable[
        [str, int | None, int | None, dict[str, int]], Sequence[int] | None
    ],
) -> dict[str, int] | None:
    """Place *order* at *ii* one operation at a time, or return ``None``.

    The list-scheduling pass Top-Down, Bottom-Up and FRLC share: each
    operation's EarlyStart/LateStart come from its *direct* scheduled
    neighbours (:func:`early_start`, :func:`late_start`), and
    ``window(name, es, ls, start)`` — the method's own rule — turns them
    into the cycles to scan, or ``None`` when they leave no room.
    """
    graph = session.graph
    mrt = session.mrt(ii)
    start: dict[str, int] = {}
    for name in order:
        es = early_start(graph, start, name, ii)
        ls = late_start(graph, start, name, ii)
        candidates = window(name, es, ls, start)
        if candidates is None:
            return None
        cycle = mrt.scan_place(graph.operation(name), candidates)
        if cycle is None:
            return None
        start[name] = cycle
    return start


def force_place(
    graph: DependenceGraph,
    mrt: ModuloReservationTable,
    start: dict[str, int],
    unscheduled: set[str],
    name: str,
    es: int,
    last_forced: dict[str, int],
) -> int | None:
    """Insist on (roughly) EarlyStart: Huff's operation ejection, Rau's
    displacement.

    *name* goes to *es*, or one cycle past the cycle it was last forced
    to when that is not earlier (so repeats make progress); every
    operation holding a resource it needs there is evicted.  Returns the
    cycle, or ``None`` when the class has zero capacity for the span at
    this II.  Dependence violations are the caller's to evict
    (:func:`evict_violations`).
    """
    cycle = es
    if name in last_forced and last_forced[name] >= cycle:
        cycle = last_forced[name] + 1
    last_forced[name] = cycle
    op = graph.operation(name)
    for victim in mrt.conflicting_ops(op, cycle):
        evict(graph, mrt, start, unscheduled, victim)
    if not mrt.place(op, cycle):
        return None
    return cycle


def evict_violations(
    graph: DependenceGraph,
    mrt: ModuloReservationTable,
    start: dict[str, int],
    unscheduled: set[str],
    name: str,
    cycle: int,
    ii: int,
) -> None:
    """Evict the placed neighbours whose dependence edges *name* at
    *cycle* violates."""
    op = graph.operation(name)
    for edge in graph.out_edges(name):
        if edge.dst == name or edge.dst not in start:
            continue
        if start[edge.dst] + edge.distance * ii < cycle + op.latency:
            evict(graph, mrt, start, unscheduled, edge.dst)
    for edge in graph.in_edges(name):
        if edge.src == name or edge.src not in start:
            continue
        producer = graph.operation(edge.src)
        if cycle + edge.distance * ii < start[edge.src] + producer.latency:
            evict(graph, mrt, start, unscheduled, edge.src)


def evict(
    graph: DependenceGraph,
    mrt: ModuloReservationTable,
    start: dict[str, int],
    unscheduled: set[str],
    victim: str,
) -> None:
    """Take *victim* off the table and back into the unscheduled pool."""
    mrt.unplace(graph.operation(victim))
    start.pop(victim, None)
    unscheduled.add(victim)


def sequential_fallback_schedule(
    graph: DependenceGraph, machine: MachineModel, ii: int
) -> dict[str, int] | None:
    """The existence proof made executable: one operation at a time.

    Issues the operations in a topological order of the distance-0
    subgraph, each after the previous one's latency, so for ``ii`` at
    least the loop body's whole serial span every constraint holds by
    construction: intra-iteration edges are satisfied by the ordering
    and the latency-wide gaps, loop-carried edges by ``ii`` exceeding
    every issue cycle, and resources by the reservations being disjoint
    in absolute cycles that never wrap.  Returns ``None`` when *ii* is
    too small for the construction (or the distance-0 subgraph is
    cyclic, in which case no schedule exists at any II).
    """
    strides = {
        op.name: max(op.latency, machine.reservation_cycles(op), 1)
        for op in graph.operations()
    }
    if ii < sum(strides.values()):
        return None
    indegree = {name: 0 for name in graph.node_names()}
    for edge in graph.edges():
        if edge.distance == 0 and edge.src != edge.dst:
            indegree[edge.dst] += 1
    ready = [name for name in graph.node_names() if indegree[name] == 0]
    start: dict[str, int] = {}
    cursor = 0
    while ready:
        name = ready.pop(0)
        start[name] = cursor
        cursor += strides[name]
        for edge in graph.out_edges(name):
            if edge.distance != 0 or edge.dst == name:
                continue
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                ready.append(edge.dst)
    if len(start) != len(graph):
        return None  # zero-distance cycle: unschedulable at any II
    return start


def upward_window(es: int, ii: int, ls: int | None = None) -> range:
    """Cycles ES .. ES+II-1, optionally clipped at a late bound."""
    top = es + ii - 1
    if ls is not None:
        top = min(top, ls)
    return range(es, top + 1)


def downward_window(ls: int, ii: int, es: int | None = None) -> range:
    """Cycles LS .. LS-II+1, optionally clipped at an early bound."""
    bottom = ls - ii + 1
    if es is not None:
        bottom = max(bottom, es)
    return range(ls, bottom - 1, -1)


class ModuloScheduler(abc.ABC):
    """Template for heuristic modulo schedulers.

    Subclasses implement :meth:`prepare` (per-loop, II-independent state)
    and :meth:`attempt` (one try at a fixed II, returning the start map or
    ``None``).
    """

    #: Human-readable method name used in reports.
    name: str = "abstract"

    def __init__(self, max_ii: int | None = None) -> None:
        self._max_ii = max_ii

    # ------------------------------------------------------------------
    def schedule(
        self,
        graph: DependenceGraph,
        machine: MachineModel,
        analysis: MIIResult | None = None,
        session: SchedulingSession | None = None,
    ) -> Schedule:
        """Produce a schedule, searching II upward from the MII.

        ``session`` shares per-(graph, machine) engine state — the MII
        analysis, the memoized MinDist matrices, per-attempt scratch —
        across searches (portfolio members, batch requests).  Without
        one a private session is created for this search.
        """
        if session is None:
            session = SchedulingSession(graph, machine, analysis)
        if analysis is None:
            analysis = session.analysis
        if trace.ACTIVE is None:
            return self._search(graph, machine, session, analysis)
        with trace.span(
            "scheduler.search", scheduler=self.name, mii=analysis.mii
        ) as tspan:
            schedule = self._search(graph, machine, session, analysis)
            if tspan is not None:
                tspan.attrs["ii"] = schedule.ii
                tspan.attrs["attempts"] = schedule.stats.attempts
            return schedule

    def _search(
        self,
        graph: DependenceGraph,
        machine: MachineModel,
        session: SchedulingSession,
        analysis: MIIResult,
    ) -> Schedule:
        """The II search itself (tracing-agnostic)."""
        wall_start = time.perf_counter()

        prep_start = time.perf_counter()
        context = self.prepare(session)
        prep_seconds = time.perf_counter() - prep_start

        ii_limit = self._ii_limit(graph, analysis)
        attempts = 0
        sched_start = time.perf_counter()
        for ii in range(analysis.mii, ii_limit + 1):
            # Cooperative cancellation: the II search is the only
            # unbounded loop in the library, so a service deadline is
            # honoured here, between attempts (no-op when unarmed).
            cancel.check()
            attempts += 1
            start = self.attempt(session, ii, context)
            if trace.ACTIVE is not None:
                trace.add_event(
                    "attempt", {"ii": ii, "placed": start is not None}
                )
            if start is not None:
                now = time.perf_counter()
                stats = ScheduleStats(
                    scheduler=self.name,
                    mii=analysis.mii,
                    resmii=analysis.resmii,
                    recmii=analysis.recmii,
                    attempts=attempts,
                    ordering_seconds=prep_seconds,
                    scheduling_seconds=now - sched_start,
                    total_seconds=now - wall_start,
                )
                return Schedule(graph, machine, ii, start, stats)
        if self._max_ii is None:
            # The default limit was *chosen* so a fully sequential
            # iteration fits — make that existence proof the schedule
            # instead of failing.  Heuristic window scans can pinch a
            # recurrence node into an II-invariant dead end (see the QA
            # corpus), in which case no amount of II growth helps; the
            # sequential construction cannot.  A user-supplied max_ii
            # is a real cap, so exhausting it still raises.
            start = sequential_fallback_schedule(graph, machine, ii_limit)
            if start is not None:
                now = time.perf_counter()
                stats = ScheduleStats(
                    scheduler=self.name,
                    mii=analysis.mii,
                    resmii=analysis.resmii,
                    recmii=analysis.recmii,
                    attempts=attempts + 1,
                    ordering_seconds=prep_seconds,
                    scheduling_seconds=time.perf_counter() - sched_start,
                    total_seconds=now - wall_start,
                )
                return Schedule(graph, machine, ii_limit, start, stats)
        raise IterationLimitError(ii_limit)

    def _ii_limit(self, graph: DependenceGraph, analysis: MIIResult) -> int:
        if self._max_ii is not None:
            return self._max_ii
        return default_ii_limit(graph, analysis.mii)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare(self, session: SchedulingSession) -> Any:
        """Build II-independent state (orderings, distance matrices, …).

        The session exposes the loop (``session.graph``), the target
        (``session.machine``) and the shared MII analysis
        (``session.analysis``).
        """

    @abc.abstractmethod
    def attempt(
        self,
        session: SchedulingSession,
        ii: int,
        context: Any,
    ) -> dict[str, int] | None:
        """Try to schedule at a fixed *ii*; ``None`` signals failure.

        Per-II state (the MinDist matrix, StartBounds, the MRT) comes
        from the session, which solves each II's matrix once and
        memoizes it.
        """
