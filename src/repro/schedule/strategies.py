"""The Rau et al. [21] register-allocation strategy matrix.

"Register allocation for software pipelined loops" (PLDI'92) evaluates
allocation as a cross product of an **ordering** (which arc to place next)
and a **fit** (which feasible register takes it).  The paper's footnote 4
quotes its headline result — wands-only end-fit with adjacency ordering
never needs more than MaxLive + 1 registers.
:func:`repro.schedule.allocator.allocate_registers` runs two pairs of
this matrix, ``("start", "best")`` and ``("adjacency", "end")``, next
to per-value tiling and keeps whichever needs the fewest registers.
This module exposes the full matrix so the claim itself can be
reproduced as an ablation:

Orderings
    ``start``      arcs by start cycle (round-robin over the circle);
    ``adjacency``  arcs chained end-to-start: after placing an arc, the
                   next candidate is the unplaced arc starting closest to
                   where it ended (the PLDI'92 "adjacency" heuristic);
    ``conflict``   most-constrained first: arcs by decreasing conflict
                   degree (graph-colouring flavour).

Fits
    ``first``      lowest-indexed feasible register;
    ``best``       feasible register with the smallest dead gap before
                   the arc (end-fit's gap measure, global over arcs);
    ``end``        register whose most recent arc ends nearest the new
                   arc's start.

All strategies colour the same circular-arc conflict graph built on the
MVE-unrolled kernel, so any (ordering, fit) pair yields a correct
allocation; they differ only in register count.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import AllocationError
from repro.schedule.allocator import Arc, RegisterAllocation, value_arcs
from repro.schedule.maxlive import max_live
from repro.schedule.schedule import Schedule

#: Recognised orderings and fits (documented above).
ORDERINGS = ("start", "adjacency", "conflict")
FITS = ("first", "best", "end")


def build_arcs(schedule: Schedule) -> tuple[list[Arc], int]:
    """All value-instance arcs of *schedule* on the unrolled circle."""
    values, unroll = value_arcs(schedule)
    return [arc for _, arcs in values for arc in arcs], unroll


def allocate_with_strategy(
    schedule: Schedule,
    ordering: str = "adjacency",
    fit: str = "end",
) -> RegisterAllocation:
    """Allocate *schedule*'s variants with one (ordering, fit) pair."""
    if ordering not in ORDERINGS:
        raise ValueError(
            f"unknown ordering {ordering!r}; choose from {ORDERINGS}"
        )
    if fit not in FITS:
        raise ValueError(f"unknown fit {fit!r}; choose from {FITS}")
    arcs, unroll = build_arcs(schedule)
    sequence = _ORDERING_FUNCS[ordering](arcs)
    registers: list[list[Arc]] = []
    assignment: dict[tuple[str, int], int] = {}
    fit_func = _FIT_FUNCS[fit]
    for arc in sequence:
        index = fit_func(arc, registers)
        if index is None:
            registers.append([arc])
            index = len(registers) - 1
        else:
            registers[index].append(arc)
        assignment[(arc.value, arc.instance)] = index
    return RegisterAllocation(
        unroll=unroll,
        register_count=len(registers),
        maxlive=max_live(schedule),
        assignment=assignment,
    )


def strategy_matrix(
    schedule: Schedule,
) -> dict[tuple[str, str], RegisterAllocation]:
    """Every (ordering, fit) pair's allocation, for ablation reports."""
    return {
        (ordering, fit): allocate_with_strategy(schedule, ordering, fit)
        for ordering in ORDERINGS
        for fit in FITS
    }


# ----------------------------------------------------------------------
# Orderings
# ----------------------------------------------------------------------
def _order_start(arcs: list[Arc]) -> list[Arc]:
    return sorted(arcs, key=lambda a: (a.start, -a.length, a.value, a.instance))


def _order_adjacency(arcs: list[Arc]) -> list[Arc]:
    """Chain arcs end-to-start around the circle."""
    remaining = _order_start(arcs)
    if not remaining:
        return []
    sequence = [remaining.pop(0)]
    while remaining:
        anchor = sequence[-1]
        end = (anchor.start + anchor.length) % anchor.circumference
        best_index = min(
            range(len(remaining)),
            key=lambda i: (
                (remaining[i].start - end) % remaining[i].circumference,
                -remaining[i].length,
            ),
        )
        sequence.append(remaining.pop(best_index))
    return sequence


def _order_conflict(arcs: list[Arc]) -> list[Arc]:
    degrees = [
        sum(1 for other in arcs if other is not arc and arc.overlaps(other))
        for arc in arcs
    ]
    paired = sorted(
        zip(arcs, degrees),
        key=lambda p: (-p[1], p[0].start, p[0].value, p[0].instance),
    )
    return [arc for arc, _ in paired]


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------
def _feasible(arc: Arc, register: list[Arc]) -> bool:
    return all(not arc.overlaps(other) for other in register)


def _fit_first(arc: Arc, registers: list[list[Arc]]) -> int | None:
    for index, register in enumerate(registers):
        if _feasible(arc, register):
            return index
    return None


def _gap_before(arc: Arc, register: list[Arc]) -> int:
    return min(
        (arc.start - (other.start + other.length)) % arc.circumference
        for other in register
    )


def _fit_best(arc: Arc, registers: list[list[Arc]]) -> int | None:
    best_index: int | None = None
    best_gap: int | None = None
    for index, register in enumerate(registers):
        if not _feasible(arc, register):
            continue
        gap = _gap_before(arc, register)
        if best_gap is None or gap < best_gap:
            best_index, best_gap = index, gap
    return best_index


def _fit_end(arc: Arc, registers: list[list[Arc]]) -> int | None:
    """Register whose most recently placed arc ends nearest the start."""
    best_index: int | None = None
    best_gap: int | None = None
    for index, register in enumerate(registers):
        if not _feasible(arc, register):
            continue
        last = register[-1]
        gap = (arc.start - (last.start + last.length)) % arc.circumference
        if best_gap is None or gap < best_gap:
            best_index, best_gap = index, gap
    return best_index


_ORDERING_FUNCS: dict[str, Callable[[list[Arc]], list[Arc]]] = {
    "start": _order_start,
    "adjacency": _order_adjacency,
    "conflict": _order_conflict,
}

_FIT_FUNCS: dict[str, Callable[[Arc, list[list[Arc]]], int | None]] = {
    "first": _fit_first,
    "best": _fit_best,
    "end": _fit_end,
}


def verify_allocation(
    schedule: Schedule, allocation: RegisterAllocation
) -> None:
    """Independent overlap check: no register holds two overlapping arcs."""
    arcs, _ = build_arcs(schedule)
    by_register: dict[int, list[Arc]] = {}
    for arc in arcs:
        register = allocation.assignment[(arc.value, arc.instance)]
        by_register.setdefault(register, []).append(arc)
    for register, members in by_register.items():
        for i, first in enumerate(members):
            for second in members[i + 1:]:
                if first.overlaps(second):
                    raise AllocationError(
                        f"register {register} holds overlapping arcs "
                        f"{(first.value, first.instance)} and "
                        f"{(second.value, second.instance)}"
                    )
