"""Wands-only register allocation (Rau et al. PLDI'92, §"wands").

The strategy the paper's footnote 4 actually names: a **wand** is the
set of simultaneously-live instances of one value on the MVE-unrolled
kernel circle — ``K`` arcs offset by II, where ``K`` is the unroll
degree.  Wands-only allocation places each value's *whole wand* into a
block of cyclically-adjacent registers (instance ``j`` in block slot
``j mod width``), so consecutive instances of a value always sit in
neighbouring registers — the property that makes post-pass copy
insertion and rotating-file emulation cheap.

Blocks are packed end-fit: values ordered by lifetime start, each block
placed at the rotation of the register ring where it fits with the
least dead space.  The result is a
:class:`~repro.schedule.allocator.RegisterAllocation`, comparable with
the per-arc strategies of :mod:`repro.schedule.strategies`; PLDI'92
reports (and the bench reproduces) that wands-only end-fit with
adjacency ordering stays within one register of MaxLive.
"""

from __future__ import annotations

from repro.schedule.allocator import Arc, RegisterAllocation, value_arcs
from repro.schedule.maxlive import max_live
from repro.schedule.schedule import Schedule


class _Wand:
    """One value's arcs, grouped and indexed by block slot."""

    def __init__(self, arcs: list[Arc], width: int) -> None:
        self.value = arcs[0].value
        self.width = width
        #: slot (0..width-1) → arcs landing in that slot.
        self.slots: list[list[Arc]] = [[] for _ in range(width)]
        for arc in arcs:
            self.slots[arc.instance % width].append(arc)
        self.start = min(arc.start for arc in arcs)

    def conflicts_with_register(
        self, slot: int, register: list[Arc]
    ) -> bool:
        return any(
            mine.overlaps(other)
            for mine in self.slots[slot]
            for other in register
        )


def allocate_wands(schedule: Schedule) -> RegisterAllocation:
    """Wands-only end-fit allocation of *schedule*'s loop variants."""
    values, unroll = value_arcs(schedule)
    wands = [_Wand(arcs, width) for width, arcs in values]
    wands.sort(key=lambda w: (w.start, -w.width, w.value))
    registers: list[list[Arc]] = []
    assignment: dict[tuple[str, int], int] = {}
    for wand in wands:
        base = _place_wand(wand, registers)
        for slot in range(wand.width):
            register = registers[(base + slot) % len(registers)]
            for arc in wand.slots[slot]:
                register.append(arc)
                assignment[(arc.value, arc.instance)] = (
                    base + slot
                ) % len(registers)

    return RegisterAllocation(
        unroll=unroll,
        register_count=len(registers),
        maxlive=max_live(schedule),
        assignment=assignment,
    )


def _place_wand(wand: _Wand, registers: list[list[Arc]]) -> int:
    """Find (or create) a base register for *wand*'s block.

    Tries every rotation of the current ring and keeps the feasible
    base whose first slot starts closest after an existing arc's end
    (the end-fit measure); when no rotation fits, the ring grows by the
    wand's width.
    """
    count = len(registers)
    best_base: int | None = None
    best_gap: int | None = None
    for base in range(count):
        if count < wand.width:
            break
        feasible = all(
            not wand.conflicts_with_register(
                slot, registers[(base + slot) % count]
            )
            for slot in range(wand.width)
        )
        if not feasible:
            continue
        gap = _gap_before(wand, registers[base % count])
        if best_gap is None or gap < best_gap:
            best_base, best_gap = base, gap
    if best_base is not None:
        return best_base
    base = len(registers)
    registers.extend([] for _ in range(wand.width))
    return base


def _gap_before(wand: _Wand, register: list[Arc]) -> int:
    """Dead space between the register's arcs and the wand's first slot."""
    if not register:
        return 10**9 - 1  # prefer reusing partially-filled registers
    anchor = min(arc.start for arc in wand.slots[0]) if wand.slots[0] else 0
    return min(
        (anchor - (other.start + other.length)) % other.circumference
        for other in register
    )
