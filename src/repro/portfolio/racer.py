"""The budgeted multi-scheduler racing engine.

The paper's whole evaluation is a *comparison* — HRMS against Top-Down,
Bottom-Up, Slack, IMS-style schedulers on II and register pressure.
:func:`race_portfolio` turns that comparison into a subsystem: run any
subset of the registered schedulers concurrently over one loop, score
every finished schedule on the multi-objective
:class:`~repro.portfolio.score.ScheduleScore`, and select a winner under
a pluggable :mod:`~repro.portfolio.policies` policy.

Racing rules:

* members run in **daemon** threads, one per member (the schedulers are
  NumPy-heavy and already raced concurrently by the service worker
  pool); the MII analysis is computed **once** and shared;
* each member gets ``member_budget`` wall seconds measured from race
  start; a member still running past it is abandoned (its thread result
  is discarded — Python threads cannot be killed, but the racer never
  waits for them, and daemon threads cannot hold up interpreter exit
  either) and recorded as ``"timeout"``;
* the exact (MILP-backed) members of
  :data:`repro.schedulers.registry.EXACT_SCHEDULERS` are opt-in: they
  join the default line-up only with ``include_exact=True``, and even
  then loops larger than ``exact_op_limit`` operations skip them (they
  are orders of magnitude slower than the heuristics) — raced exact
  members inherit the member budget as their solver time limit;
* the winner is re-validated through
  :func:`repro.schedule.verify.verify_schedule` before being returned;
  an invalid schedule (which would indicate a scheduler bug) is demoted
  and the next-best member wins instead.

Selection is deterministic: scores are pure functions of the schedules,
and exact ties break by member order, never by finishing order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.engine.session import SchedulingSession
from repro.errors import ScheduleVerificationError, SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.obs import trace
from repro.machine.machine import MachineModel
from repro.mii.analysis import MIIResult
from repro.portfolio.policies import Policy, make_policy
from repro.portfolio.score import ScheduleScore, score_schedule
from repro.schedule.schedule import Schedule
from repro.schedule.verify import verify_schedule
from repro.schedulers.base import ModuloScheduler
from repro.schedulers.registry import (
    EXACT_SCHEDULERS,
    VIRTUAL_SCHEDULERS,
    available_schedulers,
    make_scheduler,
)

#: Wall seconds each member gets before the racer abandons it.
DEFAULT_MEMBER_BUDGET = 10.0

#: Largest loop (operations) the exact MILP members race on by default.
EXACT_OP_LIMIT = 24


class MemberStatus:
    """String constants for a member's race outcome."""

    OK = "ok"
    FAILED = "failed"
    TIMEOUT = "timeout"
    SKIPPED = "skipped"
    INVALID = "invalid"


@dataclass
class MemberOutcome:
    """What one portfolio member did in the race."""

    name: str
    status: str
    score: ScheduleScore | None = None
    schedule: Schedule | None = None
    seconds: float = 0.0
    #: ``"raced"`` when scheduled here, ``"store"`` when the caller
    #: supplied a precomputed schedule (e.g. an artifact-store hit).
    source: str = "raced"
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view for decision records and API responses."""
        return {
            "name": self.name,
            "status": self.status,
            "score": self.score.as_dict() if self.score else None,
            "seconds": self.seconds,
            "source": self.source,
            "error": self.error,
        }


@dataclass
class PortfolioResult:
    """The race outcome: a winning schedule plus the full scoreboard."""

    winner: str
    schedule: Schedule
    policy: str
    members: tuple[str, ...]
    outcomes: list[MemberOutcome] = field(default_factory=list)

    def outcome(self, name: str) -> MemberOutcome:
        """The outcome of member *name* (:class:`KeyError` if absent)."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    @property
    def winner_score(self) -> ScheduleScore:
        return self.outcome(self.winner).score

    def decision_record(self) -> dict[str, Any]:
        """The JSON decision record the artifact store persists."""
        return {
            "winner": self.winner,
            "policy": self.policy,
            "members": [outcome.to_dict() for outcome in self.outcomes],
        }


def default_members(include_exact: bool = False) -> tuple[str, ...]:
    """The registry line-up a race uses when none is given."""
    names = [
        name
        for name in available_schedulers()
        if name not in VIRTUAL_SCHEDULERS
    ]
    if not include_exact:
        names = [name for name in names if name not in EXACT_SCHEDULERS]
    return tuple(names)


def resolve_members(
    members: Iterable[str] | None, include_exact: bool = False
) -> tuple[str, ...]:
    """Validate and canonicalise a member list (order kept, deduped)."""
    if members is None:
        return default_members(include_exact)
    known = available_schedulers()
    resolved: list[str] = []
    for member in members:
        name = str(member)
        if name in VIRTUAL_SCHEDULERS:
            raise SchedulingError(
                f"the portfolio cannot race itself ({name!r})"
            )
        if name not in known:
            raise SchedulingError(
                f"unknown portfolio member {name!r}; available: "
                f"{', '.join(n for n in known if n not in VIRTUAL_SCHEDULERS)}"
            )
        if name not in resolved:
            resolved.append(name)
    if not resolved:
        raise SchedulingError("a portfolio needs at least one member")
    return tuple(resolved)


def _default_make(name: str, **options) -> Any:
    return make_scheduler(name, **options)


class _MemberRun:
    """One racing member on its own daemon thread.

    Deliberately not a :class:`concurrent.futures` future: executor
    worker threads are non-daemon and joined at interpreter exit, which
    would let an abandoned (timed-out) member block process shutdown
    for as long as it keeps scheduling.
    """

    def __init__(self, name: str, fn: Callable[[], Schedule]) -> None:
        self.result: Schedule | None = None
        self.error: BaseException | None = None
        #: The member's own runtime — not the race-elapsed time at
        #: which the racer happened to observe it.
        self.seconds: float = 0.0
        self.name = name
        # Trace context is thread-local: snapshot it on the racing
        # thread so the member thread can re-parent onto the race.
        self._trace_ctx = (
            trace.current() if trace.ACTIVE is not None else None
        )
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(fn,),
            name=f"hrms-race-{name}", daemon=True,
        )
        self._thread.start()

    def _run(self, fn: Callable[[], Schedule]) -> None:
        began = time.perf_counter()
        try:
            if self._trace_ctx is not None and trace.ACTIVE is not None:
                with trace.attach(*self._trace_ctx):
                    with trace.span("portfolio.member", member=self.name):
                        self.result = fn()
            else:
                self.result = fn()
        except BaseException as exc:  # noqa: BLE001 - scoreboard entry
            self.error = exc
        finally:
            self.seconds = time.perf_counter() - began
            self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """``True`` once the member finished (either way)."""
        return self._done.wait(timeout)


def race_portfolio(
    graph: DependenceGraph,
    machine: MachineModel,
    analysis: MIIResult | None = None,
    *,
    members: Iterable[str] | None = None,
    policy: "str | dict | Policy | None" = None,
    member_budget: float | None = DEFAULT_MEMBER_BUDGET,
    include_exact: bool = False,
    exact_op_limit: int = EXACT_OP_LIMIT,
    max_ii: int | None = None,
    register_budget: int | None = None,
    precomputed: Mapping[str, Schedule] | None = None,
    make: Callable[..., Any] | None = None,
    session: SchedulingSession | None = None,
) -> PortfolioResult:
    """Race *members* over *graph* × *machine* and pick a winner.

    ``precomputed`` maps member names onto already-known schedules
    (artifact-store hits); those members are scored without racing.
    ``make`` overrides scheduler construction (tests inject slow or
    canned members through it).  ``session`` shares one
    :class:`~repro.engine.session.SchedulingSession` — MII analysis and
    the memoized MinDist matrices — across every racing member; without
    one a race-private session is created, so members still share the
    analysis and matrices among themselves.
    """
    members = resolve_members(members, include_exact)
    selected = make_policy(policy)
    if session is None:
        session = SchedulingSession(graph, machine, analysis)
    if analysis is None:
        analysis = session.analysis
    precomputed = dict(precomputed or {})
    make = make or _default_make

    skipped: dict[str, str] = {}
    to_race: list[str] = []
    for name in members:
        if name in precomputed:
            continue
        if name in EXACT_SCHEDULERS and len(graph) > exact_op_limit:
            skipped[name] = (
                f"exact scheduler skipped on a {len(graph)}-op loop "
                f"(limit {exact_op_limit}; raise exact_op_limit to force)"
            )
        else:
            to_race.append(name)

    def run_member(name: str) -> Schedule:
        options: dict[str, Any] = {}
        if max_ii is not None:
            options["max_ii"] = max_ii
        if name in EXACT_SCHEDULERS and member_budget is not None:
            options["time_limit"] = member_budget
        scheduler = make(name, **options)
        if isinstance(scheduler, ModuloScheduler):
            # Library schedulers share the race's session; canned test
            # members (arbitrary objects) keep the plain signature.
            return scheduler.schedule(
                graph, machine, analysis, session=session
            )
        return scheduler.schedule(graph, machine, analysis)

    # One daemon thread per member: the budget is a wall-clock deadline
    # from race start, so every member must *start* immediately —
    # capping at the core count would let slow members starve queued
    # ones into bogus "timeout" outcomes on small boxes.
    runs = {
        name: _MemberRun(name, lambda name=name: run_member(name))
        for name in to_race
    }
    started = time.perf_counter()

    outcomes: list[MemberOutcome] = []
    for name in members:
        if name in precomputed:
            schedule = precomputed[name]
            outcomes.append(
                MemberOutcome(
                    name=name,
                    status=MemberStatus.OK,
                    score=score_schedule(schedule, register_budget),
                    schedule=schedule,
                    seconds=schedule.stats.total_seconds,
                    source="store",
                )
            )
            continue
        if name in skipped:
            outcomes.append(
                MemberOutcome(
                    name=name,
                    status=MemberStatus.SKIPPED,
                    error=skipped[name],
                )
            )
            continue
        run = runs[name]
        remaining: float | None = None
        if member_budget is not None:
            remaining = max(
                0.0, member_budget - (time.perf_counter() - started)
            )
        if not run.wait(remaining):
            # Abandoned, not joined: the daemon thread finishes (or
            # not) in the background and its result is discarded.
            outcomes.append(
                MemberOutcome(
                    name=name,
                    status=MemberStatus.TIMEOUT,
                    seconds=time.perf_counter() - started,
                    error=f"exceeded the {member_budget}s member budget",
                )
            )
        elif run.error is not None:
            outcomes.append(
                MemberOutcome(
                    name=name,
                    status=MemberStatus.FAILED,
                    seconds=run.seconds,
                    error=f"{type(run.error).__name__}: {run.error}",
                )
            )
        else:
            outcomes.append(
                MemberOutcome(
                    name=name,
                    status=MemberStatus.OK,
                    score=score_schedule(run.result, register_budget),
                    schedule=run.result,
                    seconds=run.result.stats.total_seconds,
                )
            )

    # Verify every finisher (not just the front-runner): an "ok" status
    # is a promise consumers rely on — the service layer caches ok
    # member schedules as individually-servable artifacts.
    with trace.span(
        "portfolio.verify",
        finishers=sum(1 for o in outcomes if o.status == MemberStatus.OK),
    ):
        for outcome in outcomes:
            if outcome.status != MemberStatus.OK:
                continue
            try:
                verify_schedule(outcome.schedule)
            except ScheduleVerificationError as exc:
                outcome.status = MemberStatus.INVALID
                outcome.error = str(exc)

    ranked = sorted(
        (
            (selected.key(outcome.score), rank, outcome)
            for rank, outcome in enumerate(outcomes)
            if outcome.status == MemberStatus.OK
        ),
        key=lambda item: (item[0], item[1]),
    )
    if ranked:
        winner = ranked[0][2]
        return PortfolioResult(
            winner=winner.name,
            schedule=winner.schedule,
            policy=selected.name,
            members=members,
            outcomes=outcomes,
        )

    details = "; ".join(
        f"{outcome.name}: {outcome.status}"
        + (f" ({outcome.error})" if outcome.error else "")
        for outcome in outcomes
    )
    raise SchedulingError(
        f"portfolio race produced no valid schedule for "
        f"{graph.name!r} — {details}"
    )
