"""Modulo reservation table (MRT).

The MRT enforces the *modulo constraint*: an operation placed at cycle ``t``
occupies its functional unit at row ``t mod II`` (and, for unpipelined
units, the following ``latency - 1`` rows as well) in **every** iteration.
All schedulers in the library share this implementation, including the
ejection-based ones, so slots track their occupant and can be vacated.

Occupancy is held twice: one plain-int bitset per unit instance (bit
``r`` set means row ``r`` is busy — what every feasibility test reads;
a whole scan window collapses to a few shifts and ANDs in
:meth:`ModuloReservationTable.scan_place`) and a per-slot occupant-name
table (what Slack's ejection machinery and the diagnostics read).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MachineError
from repro.graph.ops import Operation
from repro.machine.machine import MachineModel
from repro.obs import trace


class ModuloReservationTable:
    """Resource tracker for one candidate initiation interval."""

    def __init__(self, machine: MachineModel, ii: int) -> None:
        if ii < 1:
            raise MachineError(f"II must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        self._all_rows = (1 << ii) - 1
        # busy[class name][unit index] -> int, bit r set = row r busy
        self._busy: dict[str, list[int]] = {
            unit.name: [0] * unit.count for unit in machine.unit_classes()
        }
        # names[class name][unit index][row] -> occupant op name or None
        self._names: dict[str, list[list[str | None]]] = {
            unit.name: [[None] * ii for _ in range(unit.count)]
            for unit in machine.unit_classes()
        }
        # op name -> (class name, unit index, start row, span)
        self._placements: dict[str, tuple[str, int, int, int]] = {}
        # (opclass, latency) -> (class name, span): the machine lookups
        # every scan would otherwise repeat.
        self._kinds: dict[tuple[str, int], tuple[str, int]] = {}

    def reset(self) -> None:
        """Vacate every slot; equivalent to a fresh table at the same II.

        Sessions reuse one table across a scheduler's repeated attempts
        at a single II (clearing in place is far cheaper than
        reallocating the per-class name tables).
        """
        for class_name, index, row, span in self._placements.values():
            unit_names = self._names[class_name][index]
            for offset in range(span):
                unit_names[(row + offset) % self.ii] = None
        for busy in self._busy.values():
            busy[:] = [0] * len(busy)
        self._placements.clear()

    def checkpoint(self) -> tuple[tuple[str, tuple[str, int, int, int]], ...]:
        """The current placements, in placement order, for :meth:`restore`."""
        return tuple(self._placements.items())

    def restore(
        self, saved: tuple[tuple[str, tuple[str, int, int, int]], ...]
    ) -> None:
        """Return to the state :meth:`checkpoint` saw, whatever was
        placed or vacated since: busy masks, unit per operation and
        occupant names are rebuilt from the saved placements."""
        self.reset()
        for name, (class_name, index, row, span) in saved:
            self._reserve(class_name, index, row, span, name)

    # ------------------------------------------------------------------
    def _kind(self, op: Operation) -> tuple[str, int]:
        """``(unit-class name, span)`` of *op*, cached per op kind."""
        key = (op.opclass, op.latency)
        kind = self._kinds.get(key)
        if kind is None:
            kind = (
                self.machine.class_for(op).name,
                self.machine.reservation_cycles(op),
            )
            self._kinds[key] = kind
        return kind

    def _rows_mask(self, row: int, span: int) -> int:
        """Bitset of the *span* rows starting at *row*, wrapping at II."""
        mask = ((1 << span) - 1) << row
        return (mask | (mask >> self.ii)) & self._all_rows

    def fits(self, op: Operation, cycle: int) -> bool:
        """Can *op* issue at absolute *cycle* without a resource conflict?"""
        return self._find_unit(op, cycle) is not None

    def _find_unit(self, op: Operation, cycle: int) -> int | None:
        class_name, span = self._kind(op)
        if span > self.ii:
            # An unpipelined unit cannot start a new op every II cycles if
            # one execution lasts longer than II.
            return None
        return self._free_unit(class_name, cycle % self.ii, span)

    def _free_unit(self, class_name: str, row: int, span: int) -> int | None:
        """Lowest-index unit whose *span* rows from *row* are all free."""
        need = self._rows_mask(row, span)
        for index, busy in enumerate(self._busy[class_name]):
            if not busy & need:
                return index
        return None

    def place(self, op: Operation, cycle: int) -> bool:
        """Reserve a unit for *op* at *cycle*; ``False`` if none is free."""
        if op.name in self._placements:
            raise MachineError(f"operation {op.name!r} is already placed")
        index = self._find_unit(op, cycle)
        if index is None:
            return False
        class_name, span = self._kind(op)
        self._reserve(class_name, index, cycle % self.ii, span, op.name)
        return True

    def scan_place(
        self, op: Operation, candidates: Sequence[int]
    ) -> int | None:
        """Place *op* at the first candidate cycle with a free unit.

        Equivalent to trying :meth:`place` per candidate, but every row
        is tested at once: a unit can start *op* at row ``r`` when its
        free mask, rotated by each offset ``0 .. span-1``, has bit ``r``
        set in all rotations.  The OR of those start masks over the
        class's units is the set of feasible rows the candidates are
        walked against.
        """
        if op.name in self._placements:
            raise MachineError(f"operation {op.name!r} is already placed")
        class_name, span = self._kind(op)
        ii = self.ii
        if span > ii or not candidates:
            return None
        all_rows = self._all_rows
        units = self._busy[class_name]
        feasible = 0
        for busy in units:
            # starts: rows r whose rows r .. r+width-1 are all free,
            # widened by doubling until width covers the span.
            starts = all_rows & ~busy
            width = 1
            while width < span:
                step = min(width, span - width)
                starts &= (starts >> step) | (starts << (ii - step))
                width += step
            feasible |= starts
        placed = None
        if feasible:
            for cycle in candidates:
                row = cycle % ii
                if feasible >> row & 1:
                    index = self._free_unit(class_name, row, span)
                    self._reserve(class_name, index, row, span, op.name)
                    placed = cycle
                    break
        # Only failed scans are recorded: successful placements are
        # implied by the schedule itself, and scan_place is the inner
        # placement loop — eventing every call would dominate the
        # enabled-tracing overhead budget.
        if placed is None and trace.ACTIVE is not None:
            trace.add_event(
                "mrt.scan",
                {"op": op.name, "candidates": len(candidates)},
            )
        return placed

    def _reserve(
        self, class_name: str, index: int, row: int, span: int, name: str
    ) -> None:
        self._busy[class_name][index] |= self._rows_mask(row, span)
        unit_names = self._names[class_name][index]
        for offset in range(span):
            unit_names[(row + offset) % self.ii] = name
        self._placements[name] = (class_name, index, row, span)

    def unplace(self, op: Operation) -> None:
        """Release the reservation held by *op* (no-op when absent)."""
        placement = self._placements.pop(op.name, None)
        if placement is None:
            return
        class_name, index, row, span = placement
        self._busy[class_name][index] &= ~self._rows_mask(row, span)
        unit_names = self._names[class_name][index]
        for offset in range(span):
            unit_names[(row + offset) % self.ii] = None

    def is_placed(self, op: Operation) -> bool:
        return op.name in self._placements

    def occupants(self, class_name: str, row: int) -> list[str]:
        """Names occupying *class_name* units at *row* (for diagnostics)."""
        return [
            unit_names[row % self.ii]
            for unit_names in self._names[class_name]
            if unit_names[row % self.ii] is not None
        ]

    def conflicting_ops(self, op: Operation, cycle: int) -> set[str]:
        """Occupants that prevent *op* from issuing at *cycle*.

        Used by ejection-based schedulers (Slack) to decide whom to evict.
        Returns the union of occupants over the rows *op* would need; when
        the table simply has no capacity the set may cover every unit.
        """
        class_name, span = self._kind(op)
        row = cycle % self.ii
        blockers: set[str] = set()
        for unit_names in self._names[class_name]:
            for offset in range(span):
                occupant = unit_names[(row + offset) % self.ii]
                if occupant is not None:
                    blockers.add(occupant)
        return blockers

    def utilisation(self) -> float:
        """Fraction of slot-rows currently reserved (diagnostics)."""
        total = sum(len(units) for units in self._busy.values()) * self.ii
        used = sum(
            busy.bit_count()
            for units in self._busy.values()
            for busy in units
        )
        return used / total if total else 0.0
