"""Unit tests for the machine model and modulo reservation table."""

import random

import numpy as np
import pytest

from repro.engine.windows import StartBounds
from repro.errors import MachineError, UnknownResourceError
from repro.graph.ops import FADD, FDIV, FMUL, GENERIC, MEM, Operation
from repro.machine.configs import (
    govindarajan_machine,
    motivating_machine,
    perfect_club_machine,
)
from repro.machine.machine import MachineModel, UnitClass
from repro.machine.mrt import ModuloReservationTable


class TestMachineModel:
    def test_generic_machine_accepts_any_opclass(self, generic4):
        op = Operation("x", opclass="weird")
        assert generic4.class_for(op).name == GENERIC

    def test_typed_machine_rejects_unknown_class(self, gov_machine):
        with pytest.raises(UnknownResourceError):
            gov_machine.class_for(Operation("x", opclass="vector"))

    def test_unit_count_validation(self):
        with pytest.raises(MachineError):
            UnitClass("fadd", 0)

    def test_duplicate_class_rejected(self):
        with pytest.raises(MachineError):
            MachineModel("m", [UnitClass("a", 1), UnitClass("a", 2)])

    def test_empty_machine_rejected(self):
        with pytest.raises(MachineError):
            MachineModel("m", [])

    def test_reservation_cycles(self, pc_machine):
        div = Operation("d", latency=17, opclass=FDIV)
        add = Operation("a", latency=4, opclass=FADD)
        assert pc_machine.reservation_cycles(div) == 17  # unpipelined
        assert pc_machine.reservation_cycles(add) == 1  # pipelined

    def test_total_units(self):
        assert motivating_machine().total_units() == 4
        assert govindarajan_machine().total_units() == 4
        assert perfect_club_machine().total_units() == 10


class TestMRT:
    def test_capacity_per_row(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=2)
        ops = [Operation(f"o{i}", latency=2) for i in range(5)]
        # Four ops fit in row 0 (cycles 0, 2, 4, 6), the fifth does not.
        for i, op in enumerate(ops[:4]):
            assert mrt.place(op, 2 * i)
        assert not mrt.place(ops[4], 8)
        assert mrt.place(ops[4], 9)  # row 1 is empty

    def test_unplace_frees_slot(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=1)
        ops = [Operation(f"o{i}") for i in range(5)]
        for op in ops[:4]:
            assert mrt.place(op, 0)
        assert not mrt.place(ops[4], 0)
        mrt.unplace(ops[0])
        assert mrt.place(ops[4], 0)

    def test_double_place_rejected(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=2)
        op = Operation("o")
        mrt.place(op, 0)
        with pytest.raises(MachineError):
            mrt.place(op, 1)

    def test_negative_cycles_wrap(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=3)
        op = Operation("o")
        assert mrt.place(op, -2)  # row 1
        assert mrt.occupants(GENERIC, 1) == ["o"]

    def test_unpipelined_spans_rows(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, ii=17)
        div1 = Operation("d1", latency=17, opclass=FDIV)
        div2 = Operation("d2", latency=17, opclass=FDIV)
        div3 = Operation("d3", latency=17, opclass=FDIV)
        assert mrt.place(div1, 0)  # fills unit 0 completely
        assert mrt.place(div2, 5)  # second unit
        assert not mrt.place(div3, 11)  # no third unit

    def test_unpipelined_span_longer_than_ii_rejected(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, ii=10)
        div = Operation("d", latency=17, opclass=FDIV)
        assert not mrt.fits(div, 0)

    def test_conflicting_ops(self, gov_machine):
        mrt = ModuloReservationTable(gov_machine, ii=2)
        add1 = Operation("a1", latency=1, opclass=FADD)
        add2 = Operation("a2", latency=1, opclass=FADD)
        mrt.place(add1, 0)
        assert mrt.conflicting_ops(add2, 2) == {"a1"}
        assert mrt.conflicting_ops(add2, 1) == set()

    def test_ii_must_be_positive(self, generic4):
        with pytest.raises(MachineError):
            ModuloReservationTable(generic4, ii=0)

    def test_utilisation(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=2)
        assert mrt.utilisation() == 0.0
        mrt.place(Operation("o"), 0)
        assert 0.0 < mrt.utilisation() <= 1.0


class _ReferenceMRT:
    """The seed's list-of-lists MRT — the parity oracle for the bitmask
    implementation.  Deliberately kept dumb: per-cycle, per-unit ``all``
    scans over occupant lists."""

    def __init__(self, machine, ii):
        self.machine = machine
        self.ii = ii
        self._table = {
            unit.name: [[None] * ii for _ in range(unit.count)]
            for unit in machine.unit_classes()
        }
        self._placements = {}

    def _find_unit(self, op, cycle):
        unit_class = self.machine.class_for(op)
        span = self.machine.reservation_cycles(op)
        if span > self.ii:
            return None
        row = cycle % self.ii
        for index, unit_rows in enumerate(self._table[unit_class.name]):
            if all(
                unit_rows[(row + offset) % self.ii] is None
                for offset in range(span)
            ):
                return index
        return None

    def place(self, op, cycle):
        if op.name in self._placements:
            raise MachineError(f"operation {op.name!r} is already placed")
        index = self._find_unit(op, cycle)
        if index is None:
            return False
        unit_class = self.machine.class_for(op)
        span = self.machine.reservation_cycles(op)
        row = cycle % self.ii
        unit_rows = self._table[unit_class.name][index]
        for offset in range(span):
            unit_rows[(row + offset) % self.ii] = op.name
        self._placements[op.name] = (unit_class.name, index, row, span)
        return True

    def scan_place(self, op, candidates):
        for cycle in candidates:
            if self.place(op, cycle):
                return cycle
        return None

    def unplace(self, op):
        placement = self._placements.pop(op.name, None)
        if placement is None:
            return
        class_name, index, row, span = placement
        unit_rows = self._table[class_name][index]
        for offset in range(span):
            unit_rows[(row + offset) % self.ii] = None

    def occupants(self, class_name, row):
        return [
            unit_rows[row % self.ii]
            for unit_rows in self._table[class_name]
            if unit_rows[row % self.ii] is not None
        ]


def _reference_conflicts(ref, op, cycle):
    """Occupants of the rows *op* needs at *cycle*, read off the oracle."""
    unit_class = ref.machine.class_for(op)
    span = ref.machine.reservation_cycles(op)
    row = cycle % ref.ii
    return {
        unit_rows[(row + offset) % ref.ii]
        for unit_rows in ref._table[unit_class.name]
        for offset in range(span)
    } - {None}


def _reference_utilisation(ref):
    slots = [
        slot
        for units in ref._table.values()
        for unit_rows in units
        for slot in unit_rows
    ]
    return sum(slot is not None for slot in slots) / len(slots)


class TestBitmaskMRTParity:
    """The int-bitset MRT behaves exactly like the seed's table."""

    def _random_op(self, rng, name, kinds=None):
        opclass, latency = rng.choice(
            kinds or [(FADD, 4), (FMUL, 4), (FDIV, 17), (MEM, 2), (FADD, 1)]
        )
        return Operation(name, latency=latency, opclass=opclass)

    def _random_window(self, rng, ii):
        """A scan window: upward or downward range, or (like the ladder's
        ``stagger`` pass) a rotated, non-contiguous list of cycles."""
        base = rng.randint(-5, 3 * ii)
        window = range(base, base + rng.randint(0, 2 * ii))
        shape = rng.random()
        if shape < 0.35:
            window = range(window.stop - 1, window.start - 1, -1)
        elif shape < 0.7 and len(window) > 1:
            shift = rng.randint(1, len(window) - 1)
            window = [*window[shift:], *window[:shift]]
        return window

    def _assert_same_state(self, new, ref, machine, probe):
        """Occupants, fits, conflicts and utilisation all agree."""
        for unit in machine.unit_classes():
            for row in range(ref.ii):
                assert new.occupants(unit.name, row) == ref.occupants(
                    unit.name, row
                )
        for cycle in range(-1, ref.ii + 1):
            assert new.fits(probe, cycle) == (
                ref._find_unit(probe, cycle) is not None
            )
            assert new.conflicting_ops(probe, cycle) == _reference_conflicts(
                ref, probe, cycle
            )
        assert new.utilisation() == pytest.approx(_reference_utilisation(ref))

    def _run_parity(self, rng, machine, ii, tag, kinds=None, steps=300):
        new = ModuloReservationTable(machine, ii)
        ref = _ReferenceMRT(machine, ii)
        live: list[Operation] = []
        for step in range(steps):
            action = rng.random()
            if action < 0.55 or not live:
                op = self._random_op(rng, f"op{tag}_{step}", kinds)
                cycle = rng.randint(-10, 4 * ii)
                got, want = new.place(op, cycle), ref.place(op, cycle)
                assert got == want, (tag, step, op, cycle)
                if got:
                    live.append(op)
            elif action < 0.8:
                op = self._random_op(rng, f"scan{tag}_{step}", kinds)
                window = self._random_window(rng, ii)
                got, want = (
                    new.scan_place(op, window),
                    ref.scan_place(op, window),
                )
                assert got == want, (tag, step, op, window)
                if got is not None:
                    live.append(op)
            else:
                victim = live.pop(rng.randrange(len(live)))
                new.unplace(victim)
                ref.unplace(victim)
            probe = self._random_op(rng, f"probe{tag}_{step}", kinds)
            self._assert_same_state(new, ref, machine, probe)
        return new, live

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_place_unplace_parity(self, seed, pc_machine):
        rng = random.Random(seed)
        self._run_parity(rng, pc_machine, rng.randint(1, 20), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_reset_then_reuse_at_same_ii(self, seed, pc_machine):
        rng = random.Random(100 + seed)
        ii = rng.randint(1, 20)
        table, live = self._run_parity(rng, pc_machine, ii, seed, steps=120)
        table.reset()
        assert table.utilisation() == 0.0
        assert not any(table.is_placed(op) for op in live)
        # The reset table replays a second run exactly like a fresh one.
        ref = _ReferenceMRT(pc_machine, ii)
        for step, op in enumerate(live):
            window = self._random_window(rng, ii)
            assert table.scan_place(op, window) == ref.scan_place(
                op, window
            ), (seed, step, window)
            probe = self._random_op(rng, f"again{seed}_{step}")
            self._assert_same_state(table, ref, pc_machine, probe)

    @pytest.mark.parametrize(
        "machine",
        [
            perfect_club_machine(),
            MachineModel("generic3u", [UnitClass(GENERIC, 3, pipelined=False)]),
        ],
        ids=["perfect-club", "generic-unpipelined"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_unpipelined_spans_wrap_last_row(self, machine, seed):
        rng = random.Random(200 + seed)
        ii = rng.randint(6, 12)
        kinds = [(FDIV, ii - 1), (FDIV, ii), (FDIV, 3), (FDIV, 2)]
        new = ModuloReservationTable(machine, ii)
        ref = _ReferenceMRT(machine, ii)
        for step in range(3 * ii):
            op = self._random_op(rng, f"w{seed}_{step}", kinds)
            # Start within the span of row II-1 so the reservation
            # crosses the row II-1 -> row 0 boundary.
            cycle = ii * rng.randint(-2, 2) + ii - rng.randint(1, op.latency)
            if rng.random() < 0.5:
                got, want = new.place(op, cycle), ref.place(op, cycle)
            else:
                window = range(cycle, cycle - ii, -1)
                got = new.scan_place(op, window)
                want = ref.scan_place(op, window)
            assert got == want, (seed, step, op, cycle)
            self._assert_same_state(new, ref, machine, op)

    def test_ii_zero_and_negative_rejected(self, generic4):
        for ii in (0, -3):
            with pytest.raises(MachineError):
                ModuloReservationTable(generic4, ii=ii)

    def test_span_longer_than_ii_fast_reject(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, ii=5)
        div = Operation("d", latency=17, opclass=FDIV)  # unpipelined
        assert not mrt.fits(div, 0)
        assert not mrt.place(div, 0)
        assert mrt.scan_place(div, range(0, 100)) is None
        assert mrt.utilisation() == 0.0

    def test_scan_place_empty_window(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=4)
        assert mrt.scan_place(Operation("o"), range(3, 3)) is None

    def test_scan_place_rejects_double_placement(self, generic4):
        mrt = ModuloReservationTable(generic4, ii=4)
        op = Operation("o")
        assert mrt.scan_place(op, range(0, 4)) == 0
        with pytest.raises(MachineError):
            mrt.scan_place(op, range(0, 4))


class TestCheckpointRestore:
    """``checkpoint``/``restore`` on the reservation table and on
    StartBounds, as the placement ladder uses them: a restore may jump
    to a checkpoint taken on another branch of the walk."""

    KINDS = [(FADD, 4), (FMUL, 4), (FDIV, 17), (MEM, 2), (FADD, 1)]

    def _grow(self, rng, mrt, bounds, prefix, steps, tag):
        """Scan-place *steps* random ops on top of *prefix* (a list of
        ``(op, position, cycle)``), folding each into *bounds*."""
        for step in range(steps):
            opclass, latency = rng.choice(self.KINDS)
            op = Operation(f"{tag}{step}", latency=latency, opclass=opclass)
            base = rng.randint(-3, 2 * mrt.ii)
            window = range(base, base + rng.randint(1, mrt.ii))
            if rng.random() < 0.5:
                window = window[::-1]
            cycle = mrt.scan_place(op, window)
            if cycle is not None:
                position = rng.randrange(bounds.dist.shape[0])
                bounds.place(position, cycle)
                prefix.append((op, position, cycle))
        return prefix

    def _assert_matches_fresh(self, mrt, bounds, machine, prefix):
        """*mrt*/*bounds* equal a fresh table and bounds that placed
        only *prefix*, in order."""
        fresh = ModuloReservationTable(machine, mrt.ii)
        replay = StartBounds(bounds.dist)
        for op, position, cycle in prefix:
            assert fresh.place(op, cycle)
            replay.place(position, cycle)
        assert mrt._busy == fresh._busy
        assert mrt._placements == fresh._placements
        assert mrt.checkpoint() == fresh.checkpoint()
        for unit in machine.unit_classes():
            for row in range(mrt.ii):
                assert mrt.occupants(unit.name, row) == fresh.occupants(
                    unit.name, row
                )
        for opclass, latency in self.KINDS:
            probe = Operation("probe", latency=latency, opclass=opclass)
            for cycle in range(mrt.ii):
                assert mrt.conflicting_ops(probe, cycle) == (
                    fresh.conflicting_ops(probe, cycle)
                )
        assert np.array_equal(bounds._es, replay._es)
        assert np.array_equal(bounds._ls, replay._ls)

    @pytest.mark.parametrize("seed", range(6))
    def test_restore_to_any_branch(self, seed, pc_machine):
        rng = random.Random(300 + seed)
        ii = rng.randint(2, 18)
        n = 12
        dist = np.array(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)],
            dtype=np.int64,
        )
        mrt = ModuloReservationTable(pc_machine, ii)
        bounds = StartBounds(dist)
        trunk = self._grow(rng, mrt, bounds, [], 4, "t")
        saved = {"trunk": (mrt.checkpoint(), bounds.checkpoint(), trunk[:])}
        left = self._grow(rng, mrt, bounds, trunk[:], 5, "l")
        saved["left"] = (mrt.checkpoint(), bounds.checkpoint(), left[:])
        # Back to the trunk, then down a second branch.
        mrt.restore(saved["trunk"][0])
        bounds.restore(saved["trunk"][1])
        self._assert_matches_fresh(mrt, bounds, pc_machine, trunk)
        right = self._grow(rng, mrt, bounds, trunk[:], 6, "r")
        saved["right"] = (mrt.checkpoint(), bounds.checkpoint(), right[:])
        # Jump across branches, repeatedly, and to the same one twice
        # (a checkpoint survives being restored).
        for name in ("left", "right", "trunk", "left", "left", "right"):
            table_state, bound_state, prefix = saved[name]
            mrt.restore(table_state)
            bounds.restore(bound_state)
            self._assert_matches_fresh(mrt, bounds, pc_machine, prefix)
        # A restored table keeps working like the fresh one.
        more = self._grow(rng, mrt, bounds, right[:], 4, "m")
        self._assert_matches_fresh(mrt, bounds, pc_machine, more)

    def test_restore_of_empty_checkpoint_clears(self, pc_machine):
        mrt = ModuloReservationTable(pc_machine, 5)
        empty = mrt.checkpoint()
        assert empty == ()
        assert mrt.scan_place(Operation("a", opclass=FADD), range(5)) == 0
        mrt.restore(empty)
        assert mrt.utilisation() == 0.0
        assert mrt.occupants(FADD, 0) == []
