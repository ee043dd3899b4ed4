"""Failure-injection tests: every error path fires cleanly.

The library's contract is that misuse raises a :class:`ReproError`
subclass with an actionable message — never a bare ``KeyError`` or a
silent wrong answer.  These tests drive each documented failure mode.
"""

import pytest

from repro.errors import (
    AllocationError,
    DuplicateOperationError,
    IterationLimitError,
    MachineError,
    ReproError,
    ScheduleVerificationError,
    SpillError,
    UnknownOperationError,
    UnknownResourceError,
    ZeroDistanceCycleError,
)
from repro.frontend import compile_source
from repro.graph.builder import GraphBuilder
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import Edge
from repro.graph.ops import Operation
from repro.machine.configs import govindarajan_machine
from repro.machine.machine import MachineModel, UnitClass
from repro.schedule.schedule import Schedule
from repro.schedule.verify import verify_schedule
from repro.schedulers.registry import make_scheduler


class TestGraphErrors:
    def test_duplicate_operation(self):
        graph = DependenceGraph("g")
        graph.add_operation(Operation("a"))
        with pytest.raises(DuplicateOperationError, match="'a'"):
            graph.add_operation(Operation("a"))

    def test_edge_to_unknown_operation(self):
        graph = DependenceGraph("g")
        graph.add_operation(Operation("a"))
        with pytest.raises(UnknownOperationError, match="'ghost'"):
            graph.add_edge(Edge("a", "ghost"))

    def test_source_compiling_to_no_operations(self, tmp_path, monkeypatch):
        """A front end that lowers to nothing is a typed GraphError at
        request resolution, never a crash deep in the payload."""
        from types import SimpleNamespace

        from repro.errors import GraphError
        from repro.frontend import pipeline
        from repro.service.executor import SchedulingExecutor
        from repro.service.store import ArtifactStore

        monkeypatch.setattr(
            pipeline,
            "compile_source",
            lambda *args, **kwargs: SimpleNamespace(
                graph=DependenceGraph("empty")
            ),
        )
        executor = SchedulingExecutor(ArtifactStore(tmp_path))
        with pytest.raises(GraphError, match="no operations"):
            executor.execute_request("schedule", {"source": "do i = 1, 2"})

    def test_zero_distance_cycle_rejected(self):
        with pytest.raises(ZeroDistanceCycleError):
            (
                GraphBuilder("cycle")
                .op("a", deps=["b"])
                .op("b", deps=["a"])
                .build()
            )

    def test_zero_distance_cycle_allowed_with_distance(self):
        graph = (
            GraphBuilder("rec")
            .op("a", deps=[("b", 1)])
            .op("b", deps=["a"])
            .build()
        )
        assert len(graph) == 2

    def test_subgraph_of_unknown_nodes(self):
        graph = GraphBuilder("g").op("a").build()
        with pytest.raises(UnknownOperationError):
            graph.subgraph(["a", "nope"])


class TestMachineErrors:
    def test_machine_without_units(self):
        with pytest.raises(MachineError, match="at least one"):
            MachineModel("empty", units=[])

    def test_duplicate_unit_class(self):
        with pytest.raises(MachineError, match="duplicate"):
            MachineModel(
                "dup", units=[UnitClass("mem", 1), UnitClass("mem", 2)]
            )

    def test_zero_count_unit_class(self):
        with pytest.raises(MachineError, match="count"):
            UnitClass("mem", 0)

    def test_unknown_opclass_at_scheduling_time(self):
        graph = GraphBuilder("g").op("a", "vector", latency=1).build()
        machine = govindarajan_machine()
        with pytest.raises(UnknownResourceError, match="'vector'"):
            make_scheduler("hrms").schedule(graph, machine)

    def test_frontend_kernel_on_wrong_machine(self):
        # Perfect-club profile emits fsqrt ops; the Table-1 machine has
        # no such class.
        loop = compile_source(
            "real s\nreal x(9)\ndo i = 1, 9\n  s = sqrt(x(i))\nend do"
        )
        with pytest.raises(UnknownResourceError, match="fsqrt"):
            make_scheduler("hrms").schedule(
                loop.graph, govindarajan_machine()
            )


class TestSchedulingErrors:
    def test_ii_limit_exhaustion(self):
        graph = (
            GraphBuilder("g")
            .load("a")
            .load("b")
            .load("c")
            .store("s", deps=["a", "b", "c"])
            .build()
        )
        machine = govindarajan_machine()
        with pytest.raises(IterationLimitError, match="up to 2"):
            make_scheduler("hrms", max_ii=2).schedule(graph, machine)

    def test_verifier_rejects_broken_dependence(self):
        graph = (
            GraphBuilder("g")
            .load("a")
            .add("b", deps=["a"])
            .store("c", deps=["b"])
            .build()
        )
        machine = govindarajan_machine()
        good = make_scheduler("hrms").schedule(graph, machine)
        bad = Schedule(
            graph,
            machine,
            good.ii,
            {"a": 0, "b": 0, "c": 5},  # b issues before a completes
            good.stats,
        )
        with pytest.raises(ScheduleVerificationError, match="violated"):
            verify_schedule(bad)

    def test_verifier_rejects_resource_oversubscription(self):
        graph = (
            GraphBuilder("g").load("a").load("b").store("c").build()
        )
        machine = govindarajan_machine()
        good = make_scheduler("hrms").schedule(graph, machine)
        bad = Schedule(
            graph,
            machine,
            good.ii,
            {"a": 0, "b": 0, "c": 0},  # three mem ops in one row, 1 unit
            good.stats,
        )
        with pytest.raises(ScheduleVerificationError):
            verify_schedule(bad)

    def test_base_error_catches_everything(self):
        graph = GraphBuilder("g").op("a", "vector").build()
        with pytest.raises(ReproError):
            make_scheduler("hrms").schedule(graph, govindarajan_machine())

    def test_unknown_scheduler_name(self):
        with pytest.raises(ReproError, match="unknown scheduler"):
            make_scheduler("quantum")


class TestSpillAndAllocationErrors:
    def test_spill_budget_too_small(self):
        from repro.spill.spiller import schedule_with_register_budget

        graph = (
            GraphBuilder("wide")
            .load("a")
            .load("b")
            .mul("m", deps=["a"])
            .add("s", deps=["m", "b"])
            .store("st", deps=["s"])
            .build()
        )
        machine = govindarajan_machine()
        outcome = schedule_with_register_budget(
            graph, machine, make_scheduler("hrms"), budget=1
        )
        # A budget of one register cannot hold this loop: the outcome
        # reports not-fitting rather than raising (Figure 14 counts
        # these loops), but the schedule is still valid.
        assert not outcome.fits
        verify_schedule(outcome.schedule)

    def test_rotating_allocator_search_cap(self):
        from repro.schedule import rotating

        graph = (
            GraphBuilder("g")
            .load("a")
            .add("b", deps=["a"])
            .store("c", deps=["b"])
            .build()
        )
        machine = govindarajan_machine()
        schedule = make_scheduler("hrms").schedule(graph, machine)
        original = rotating.MAX_ROTATING_REGISTERS
        rotating.MAX_ROTATING_REGISTERS = 0
        try:
            with pytest.raises(AllocationError, match="exceeded"):
                rotating.allocate_rotating(schedule)
        finally:
            rotating.MAX_ROTATING_REGISTERS = original
