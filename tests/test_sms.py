"""Tests for the Swing Modulo Scheduling extension."""

import pytest

from repro.engine.mindist import factorise, solve
from repro.machine.configs import motivating_machine
from repro.mii.analysis import compute_mii
from repro.schedule.maxlive import max_live
from repro.schedulers.registry import make_scheduler
from repro.schedulers.sms import SwingScheduler, swing_order
from repro.workloads.motivating import motivating_example


def order_at(graph, mii):
    """The swing order over the pure MinDist solve at ``max(mii, 1)``."""
    return swing_order(graph, solve(factorise(graph), max(mii, 1)))


class TestSwingOrder:
    def test_permutation(self, gov_suite):
        from repro.machine.configs import govindarajan_machine

        machine = govindarajan_machine()
        for loop in gov_suite:
            analysis = compute_mii(loop.graph, machine)
            order = order_at(loop.graph, analysis.mii)
            assert sorted(order) == sorted(loop.graph.node_names())

    def test_reference_neighbour_invariant(self, gov_suite):
        """After the first node of each component, every ordered node has
        an already-ordered neighbour (SMS's version of HRMS's invariant)."""
        from repro.graph.components import connected_components
        from repro.machine.configs import govindarajan_machine

        machine = govindarajan_machine()
        for loop in gov_suite:
            analysis = compute_mii(loop.graph, machine)
            order = order_at(loop.graph, analysis.mii)
            placed = set()
            orphans = 0
            for name in order:
                if not (set(loop.graph.neighbors(name)) & placed):
                    orphans += 1
                placed.add(name)
            assert orphans <= len(connected_components(loop.graph))

    def test_critical_recurrence_ordered_first(self):
        from repro.workloads.motivating import figure10_graph

        order = order_at(figure10_graph(), mii=4)
        # The RecMII-4 circuit {A, C, D, F} has zero mobility at MII=4.
        assert set(order[:4]) == {"A", "C", "D", "F"}


class TestSwingScheduler:
    def test_motivating_example_register_quality(self, assert_valid):
        schedule = assert_valid(
            SwingScheduler().schedule(
                motivating_example(), motivating_machine()
            )
        )
        assert schedule.ii == 2
        # SMS keeps HRMS's register quality on the paper's example.
        assert max_live(schedule) <= 7

    def test_valid_on_gov_suite(self, gov_suite, gov_machine, assert_valid):
        scheduler = SwingScheduler()
        misses = 0
        for loop in gov_suite:
            analysis = compute_mii(loop.graph, gov_machine)
            schedule = assert_valid(
                scheduler.schedule(loop.graph, gov_machine, analysis)
            )
            misses += schedule.ii != analysis.mii
        # SMS is a heuristic: allow an isolated II miss on the suite
        # (HRMS itself reaches the MII on all 24 -- see the HRMS tests).
        assert misses <= 1

    def test_valid_on_pc_sample(self, pc_sample, pc_machine, assert_valid):
        scheduler = SwingScheduler()
        for loop in pc_sample[:30]:
            assert_valid(scheduler.schedule(loop.graph, pc_machine))

    def test_registry_exposure(self):
        assert make_scheduler("sms").name == "sms"

    def test_near_hrms_register_quality(self, pc_sample, pc_machine):
        """SMS should track HRMS's register pressure closely (its design
        goal) — within ~15% aggregate on the sample."""
        hrms = make_scheduler("hrms")
        sms = make_scheduler("sms")
        total_h = total_s = 0
        for loop in pc_sample[:40]:
            total_h += max_live(hrms.schedule(loop.graph, pc_machine))
            total_s += max_live(sms.schedule(loop.graph, pc_machine))
        assert total_s <= total_h * 1.15
