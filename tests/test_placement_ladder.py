"""The placement ladder's row-group walk against the six-pass loop.

:func:`repro.schedulers.base.bidirectional_ladder` walks the rows of
``base._LADDER`` together, as groups of rows that still agree, and
checkpoints the state where a group splits.  The reference here is the
loop that walk replaced: every row a pass of its own from the first
operation, the first pass that places every operation wins.  Both must
give the same start map (or ``None``) for every order and II.
"""

from __future__ import annotations

from typing import Any, Sequence

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.session import SchedulingSession
from repro.machine.configs import perfect_club_machine
from repro.machine.mrt import ModuloReservationTable
from repro.qa.profiles import fuzz_profiles
from repro.schedulers import base
from repro.schedulers.base import (
    ModuloScheduler,
    bidirectional_ladder,
    downward_window,
    upward_window,
)
from repro.schedulers.registry import make_scheduler
from repro.workloads.perfectclub import perfect_club_suite

MACHINE = perfect_club_machine()
PROFILES = {profile.name: profile for profile in fuzz_profiles()}


def reference_pass(
    session: SchedulingSession,
    ii: int,
    order: list[str],
    scan_down: int,
    stagger: int,
    seen: set | None = None,
) -> dict[str, int] | None:
    """One row of ``base._LADDER`` as a pass of its own.

    *seen* collects ``(II, prefix, operation, candidates)`` for every
    scan: the distinct placement decisions the pass makes.
    """
    graph = session.graph
    bounds = session.start_bounds(ii)
    if bounds is None:
        return None
    view = graph.indexed()
    mrt = session.mrt(ii)
    start: dict[str, int] = {}
    placed: set[int] = set()
    for name in order:
        i = view.position[name]
        es = bounds.early_start(i)
        ls = bounds.late_start(i)
        if ls is None:
            window = upward_window(0 if es is None else es, ii)
        elif es is None:
            window = downward_window(ls, ii)
        elif es > ls:
            return None
        else:
            if scan_down == base._NEVER:
                down = False
            elif scan_down == base._ALWAYS:
                down = True
            else:
                down = not placed.isdisjoint(view.successors[i]) and (
                    scan_down == base._ANY_SUCC
                    or placed.isdisjoint(view.predecessors[i])
                )
            if down:
                window = downward_window(ls, ii, es)
            else:
                window = upward_window(es, ii, ls)
        candidates: Sequence[int] = window
        if stagger and len(window) > 1:
            shift = stagger % len(window)
            candidates = [*window[shift:], *window[:shift]]
        if seen is not None:
            seen.add((ii, tuple(start.values()), name, tuple(candidates)))
        cycle = mrt.scan_place(graph.operation(name), candidates)
        if cycle is None:
            return None
        start[name] = cycle
        placed.add(i)
        bounds.place(i, cycle)
    return start


def reference_ladder(
    session: SchedulingSession,
    ii: int,
    order: list[str],
    seen: set | None = None,
) -> dict[str, int] | None:
    """The six-pass loop: every row from op 0, first success wins."""
    for scan_down, stagger in base._LADDER:
        result = reference_pass(session, ii, order, scan_down, stagger, seen)
        if result is not None:
            return result
    return None


def ladder_order(context: Any) -> list[str]:
    """The order an HRMS (ordering result) or SMS (list) context places."""
    return getattr(context, "order", context)


class Reference(ModuloScheduler):
    """HRMS or SMS with its own ordering, placed by
    :func:`reference_ladder`."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = f"{name}-reference"
        self._scheduler = make_scheduler(name)
        #: Distinct scans of the current loop (see :func:`reference_pass`).
        self.seen: set = set()

    def prepare(self, session: SchedulingSession) -> Any:
        self.seen = set()
        return self._scheduler.prepare(session)

    def attempt(
        self, session: SchedulingSession, ii: int, context: Any
    ) -> dict[str, int] | None:
        return reference_ladder(session, ii, ladder_order(context), self.seen)


def orders(session: SchedulingSession) -> dict[str, list[str]]:
    return {
        name: ladder_order(make_scheduler(name).prepare(session))
        for name in ("hrms", "sms")
    }


def assert_same_placement(graph) -> None:
    session = SchedulingSession(graph, MACHINE)
    mii = session.analysis.mii
    for label, order in orders(session).items():
        for ii in range(mii, mii + 4):
            want = reference_ladder(session, ii, order)
            got = bidirectional_ladder(session, ii, order)
            if want is None:
                assert got is None, (graph.name, label, ii)
            else:
                # Same cycles, and the same key order as the passes.
                assert got is not None, (graph.name, label, ii)
                assert list(got.items()) == list(want.items()), (
                    graph.name, label, ii,
                )


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_walk_matches_the_six_passes_on_every_profile(profile_name, seed):
    assert_same_placement(PROFILES[profile_name].build(seed, prefix="ladder"))


def test_walk_matches_the_six_passes_on_perfect_club():
    for loop in perfect_club_suite(n_loops=40):
        assert_same_placement(loop.graph)


def scan_counts(monkeypatch, name: str, graphs) -> dict[str, int]:
    """``scan_place`` calls of *name*'s searches over *graphs* through
    the walk and through the six passes, and the number of distinct
    (prefix, window) decisions the passes make; the start maps must
    agree."""
    calls = {"n": 0}
    scan_place = ModuloReservationTable.scan_place

    def counted(self, op, candidates):
        calls["n"] += 1
        return scan_place(self, op, candidates)

    monkeypatch.setattr(ModuloReservationTable, "scan_place", counted)
    reference = Reference(name)
    counts = {"distinct": 0}
    schedules = {}
    for label, scheduler in (
        ("walk", make_scheduler(name)),
        ("reference", reference),
    ):
        calls["n"] = 0
        schedules[label] = []
        for graph in graphs:
            schedule = scheduler.schedule(graph, MACHINE)
            schedules[label].append((schedule.ii, list(schedule.start.items())))
            if scheduler is reference:
                counts["distinct"] += len(reference.seen)
        counts[label] = calls["n"]
    monkeypatch.undo()
    assert schedules["walk"] == schedules["reference"]
    return counts


def test_shared_prefixes_are_placed_once(monkeypatch):
    """The first 100 Perfect-Club loops under HRMS: the walk scans each
    distinct (prefix, operation, window) of the six passes at most once,
    for the same schedules.

    That is 0.614x the passes' ``scan_place`` calls on these loops.  No
    walk that shares only identical prefixes can go below 0.610x here:
    that is the share of distinct placement states the passes reach.
    """
    loops = [loop.graph for loop in perfect_club_suite(n_loops=100)]
    scans = scan_counts(monkeypatch, "hrms", loops)
    assert scans["walk"] <= scans["distinct"], scans
    assert scans["walk"] <= 0.62 * scans["reference"], scans


@pytest.mark.parametrize("name", ["hrms", "sms"])
def test_no_decision_is_made_twice_on_the_qa_profiles(monkeypatch, name):
    graphs = [
        profile.build(seed, prefix="ladder")
        for profile in PROFILES.values()
        for seed in range(30)
    ]
    scans = scan_counts(monkeypatch, name, graphs)
    assert scans["walk"] <= scans["distinct"], scans
