"""Register allocation for software-pipelined loops.

The paper (footnote 4) defers allocation to Rau et al. [21]: with modulo
variable expansion (MVE) or a rotating register file, the "wands-only"
strategy using **end-fit with adjacency ordering** almost always reaches
the MaxLive lower bound and never needs more than MaxLive + 1 registers.

This module implements that pipeline:

1. Pick the MVE unroll degree ``K`` — the largest number of simultaneously
   live instances of any single value (``max_v ceil(lifetime_v / II)``).
   Unrolling the kernel ``K`` times gives every live instance of a value a
   distinct name.
2. Lay every instance's lifetime onto a circle of circumference ``K * II``
   (the unrolled kernel is cyclic: instance ``j`` of iteration ``i`` is
   instance ``(j + 1) mod K`` of iteration ``i + 1``).
3. Colour the resulting circular-arc conflict graph with *end-fit*: arcs
   sorted by start cycle, each placed in the first register whose existing
   arcs it does not overlap (adjacency ordering makes consecutive
   instances of one value land in adjacent registers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import AllocationError
from repro.schedule.lifetimes import compute_lifetimes
from repro.schedule.maxlive import max_live
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class Arc:
    """One value instance's lifetime on the unrolled-kernel circle."""

    value: str
    instance: int
    start: int
    length: int
    circumference: int

    def covers(self, point: int) -> bool:
        """Does the arc cover *point* (mod circumference)?"""
        if self.length >= self.circumference:
            return True
        offset = (point - self.start) % self.circumference
        return offset < self.length

    def overlaps(self, other: "Arc") -> bool:
        """Cyclic interval overlap test."""
        if self.length == 0 or other.length == 0:
            return False
        if (
            self.length >= self.circumference
            or other.length >= other.circumference
        ):
            return True
        gap = (other.start - self.start) % self.circumference
        if gap < self.length:
            return True
        gap_back = (self.start - other.start) % self.circumference
        return gap_back < other.length


@dataclass
class RegisterAllocation:
    """Result of allocating one schedule's loop variants."""

    unroll: int
    register_count: int
    maxlive: int
    #: (value, instance) -> register index.
    assignment: dict[tuple[str, int], int] = field(default_factory=dict)

    @property
    def overhead(self) -> int:
        """Registers beyond the MaxLive lower bound."""
        return self.register_count - self.maxlive


#: Unroll degrees beyond this are impractical for code size; the degree
#: falls back to the largest per-value requirement (still correct, merely
#: more fragmented).
MAX_UNROLL = 64


def mve_unroll_degree(schedule: Schedule) -> int:
    """Kernel unroll factor for modulo variable expansion.

    Lam's MVE uses the least common multiple of the per-value degrees
    ``ceil(lifetime / II)`` so that every value's instances tile the
    unrolled kernel exactly; the lcm is what lets end-fit reach MaxLive.
    Degenerate lcm blow-ups fall back to the maximum degree.
    """
    degrees = [
        math.ceil(lifetime.length / schedule.ii)
        for lifetime in compute_lifetimes(schedule)
        if lifetime.length > 0
    ]
    if not degrees:
        return 1
    degree = math.lcm(*degrees)
    if degree > MAX_UNROLL:
        degree = max(degrees)
    return degree


def allocate_registers(schedule: Schedule) -> RegisterAllocation:
    """Allocate all loop variants of *schedule*.

    Runs three strategies and keeps the smallest result:

    * **end-fit colouring** of the circular-arc conflict graph — arcs by
      start cycle, each in the feasible register with the smallest dead
      gap before it (the ``("start", "best")`` pair of
      :mod:`repro.schedule.strategies`; good when lifetimes are of
      similar length),
    * **per-value tiling with register merging** — each value first gets
      its own ``ceil(lifetime/II)`` cyclically-tiled registers (plain
      modulo variable expansion), then registers with disjoint occupancy
      are greedily merged (good when a few very long lifetimes coexist
      with many short ones), and
    * the PLDI'92 **adjacency-ordered end-fit** from
      :mod:`repro.schedule.strategies` — the pair the paper's footnote 4
      singles out.

    Together they stay within a small constant of MaxLive on every suite
    in the repository; Rau et al.'s full wands machinery would shave the
    remaining register or two.
    """
    # Imported lazily: strategies reuses this module's Arc machinery.
    from repro.schedule.strategies import allocate_with_strategy

    candidates = [
        allocate_with_strategy(schedule, "start", "best"),
        _allocate_tiled_merged(schedule),
        allocate_with_strategy(schedule, "adjacency", "end"),
    ]
    return min(candidates, key=lambda a: a.register_count)


def _allocate_tiled_merged(schedule: Schedule) -> RegisterAllocation:
    """Per-value modulo-variable-expansion tiling, then register merging.

    Value ``v`` with degree ``d = ceil(lifetime/II)`` places instance
    ``j`` in private register ``j mod d`` — instances of one value never
    conflict that way.  Registers (arc sets) from different values are
    then merged greedily whenever their occupancies are disjoint on the
    common circle.
    """
    ii = schedule.ii
    unroll = mve_unroll_degree(schedule)
    circumference = unroll * ii

    # Build per-value private registers.
    registers: list[list[Arc]] = []
    owner_of: dict[tuple[str, int], int] = {}
    for lifetime in compute_lifetimes(schedule):
        if lifetime.length == 0:
            continue
        if lifetime.length > circumference:
            raise AllocationError(
                f"value {lifetime.producer!r}: lifetime {lifetime.length} "
                f"exceeds unrolled kernel span {circumference}"
            )
        degree = max(1, math.ceil(lifetime.length / ii))
        # Instance j and j+degree share a register, which is only
        # conflict-free when the circle holds a whole number of degree-
        # sized strides; when the unroll factor fell back from the lcm,
        # widen the stride to the next divisor of the unroll.
        while unroll % degree:
            degree += 1
        base = len(registers)
        registers.extend([] for _ in range(degree))
        for instance in range(unroll):
            arc = Arc(
                value=lifetime.producer,
                instance=instance,
                start=(lifetime.start + instance * ii) % circumference,
                length=lifetime.length,
                circumference=circumference,
            )
            slot = base + instance % degree
            registers[slot].append(arc)
            owner_of[(arc.value, arc.instance)] = slot

    # Greedy merging of disjoint registers (largest occupancy first so
    # heavy registers absorb light ones).
    order = sorted(
        range(len(registers)),
        key=lambda r: -sum(arc.length for arc in registers[r]),
    )
    merged_into: dict[int, int] = {}
    kept: list[int] = []
    for reg in order:
        placed = False
        for target in kept:
            if all(
                not a.overlaps(b)
                for a in registers[reg]
                for b in registers[target]
            ):
                registers[target].extend(registers[reg])
                merged_into[reg] = target
                placed = True
                break
        if not placed:
            kept.append(reg)
    renumber = {old: new for new, old in enumerate(kept)}
    assignment = {
        key: renumber[merged_into.get(slot, slot)]
        for key, slot in owner_of.items()
    }

    return RegisterAllocation(
        unroll=unroll,
        register_count=len(kept),
        maxlive=max_live(schedule),
        assignment=assignment,
    )
