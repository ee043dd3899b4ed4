"""Pinned digests of the exact (MILP) schedulers and their solver glue.

SPILP and OptReg build one time-indexed integer program each and hand it
to :func:`scipy.optimize.milp`.  Two digests hold them still while the
model-building code changes underneath:

* **Model digest** — the solver's arguments (objective, canonical CSR
  constraint matrix, row bounds, variable bounds, integrality, options)
  for ``attempt`` at II = MII..MII+2.  The ``milp`` call site is replaced
  by a recorder that hashes them and raises, so no model is solved.
* **Start-map digest** — ``(graph name, II, sorted start map)`` of whole
  schedules: SPILP on the whole population, OptReg on the loops it
  solves well inside its time limit (a loop that hits the limit returns
  whatever incumbent the clock allowed, which is not reproducible).

The population is the Govindarajan suite plus the bundled kernels
(Govindarajan lowering), each with at most 14 operations, on the
Govindarajan machine: 50 graphs.

The solver-status mapping shared by both schedulers is tested against
fake solver results.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from repro.engine.session import SchedulingSession
from repro.errors import ReproError, SolverError, SolverTimeoutError
from repro.frontend.kernels import kernel_names, kernel_source
from repro.frontend.pipeline import compile_source, profile_by_name
from repro.machine.configs import govindarajan_machine
from repro.schedulers import exact
from repro.schedulers.optreg import OptRegScheduler
from repro.schedulers.registry import make_scheduler
from repro.schedulers.spilp import SPILPScheduler
from repro.workloads.govindarajan import govindarajan_suite

MACHINE = govindarajan_machine()

#: Largest graph in the population, in operations.
MAX_OPS = 14

#: Per-scheduler digest of the solver arguments, II = MII..MII+2.
MODEL_DIGESTS = {
    "spilp": (
        "a5a490d23bb64f1fc6f80b0ca673b533e89099a954b459ecbe4e90f28098ba3a"
    ),
    "optreg": (
        "f8ec49ddce5118c82088ec3fc7af07d5f1902ee7fc81c474a31bff68d87aabce"
    ),
}

#: SPILP start-map digest over the whole population.
SPILP_START_DIGEST = (
    "cf82153cf2c1d69d8fc8de5d8eb1036fa766cda2d32a5ac2717e9ac307b107b9"
)

#: OptReg start-map digest over :data:`OPTREG_LOOPS` and
#: :data:`OPTREG_KERNELS`.
OPTREG_START_DIGEST = (
    "5f66c20315f8cc730dd295c9f7eda03fd4ca088e235c80888fdaa419cf1bcc46"
)

#: Govindarajan loops OptReg solves to optimality in well under a second.
OPTREG_LOOPS = (
    "liv11", "dscal", "liv3", "recur2", "liv12", "expavg", "liv5",
    "liv2", "spice1", "daxpy", "whet1",
)

#: Bundled kernels OptReg solves to optimality in well under a second.
OPTREG_KERNELS = (
    "predicated_clip", "running_max", "liv11_partial_sum",
    "liv12_first_diff", "red_black", "horner", "gather_reduce", "daxpy",
)


def _loops():
    return [
        loop.graph
        for loop in govindarajan_suite()
        if len(loop.graph) <= MAX_OPS
    ]


def _kernels():
    profile = profile_by_name("govindarajan")
    graphs = (
        compile_source(kernel_source(name), name=name, profile=profile).graph
        for name in kernel_names()
    )
    return [graph for graph in graphs if len(graph) <= MAX_OPS]


@pytest.fixture(scope="module")
def population():
    loops, kernels = _loops(), _kernels()
    assert (len(loops), len(kernels)) == (23, 27)
    return loops, kernels


class _Solved(Exception):
    """Raised by the recorder in place of solving."""


def _hash_array(hasher, array) -> None:
    array = np.ascontiguousarray(array)
    hasher.update(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(array.tobytes())


def _recorder(hasher):
    """A stand-in for ``milp`` that hashes its arguments and raises."""

    def record(c, *, integrality=None, bounds=None, constraints=None,
               options=None):
        _hash_array(hasher, np.asarray(c, dtype=float))
        _hash_array(hasher, np.asarray(integrality, dtype=float))
        _hash_array(hasher, np.asarray(bounds.lb, dtype=float))
        _hash_array(hasher, np.asarray(bounds.ub, dtype=float))
        if not isinstance(constraints, (list, tuple)):
            constraints = [constraints]
        for constraint in constraints:
            matrix = sparse.csr_matrix(constraint.A, dtype=float)
            matrix.sum_duplicates()
            matrix.sort_indices()
            hasher.update(repr(matrix.shape).encode())
            for part in (matrix.data, matrix.indices, matrix.indptr):
                _hash_array(hasher, part.astype(np.float64))
            _hash_array(hasher, np.asarray(constraint.lb, dtype=float))
            _hash_array(hasher, np.asarray(constraint.ub, dtype=float))
        hasher.update(json.dumps(options, sort_keys=True).encode())
        raise _Solved

    return record


def _model_digest(scheduler, graphs, monkeypatch) -> str:
    hasher = hashlib.sha256()
    monkeypatch.setattr(exact, "milp", _recorder(hasher))
    for graph in graphs:
        session = SchedulingSession(graph, MACHINE)
        mii = session.analysis.mii
        for ii in range(mii, mii + 3):
            hasher.update(json.dumps([graph.name, ii]).encode())
            try:
                outcome = scheduler.attempt(session, ii, None)
            except _Solved:
                continue
            hasher.update(json.dumps(["returned", outcome]).encode())
    return hasher.hexdigest()


def _start_digest(scheduler_name, graphs) -> str:
    hasher = hashlib.sha256()
    for graph in graphs:
        try:
            schedule = make_scheduler(scheduler_name).schedule(graph, MACHINE)
            row = [schedule.ii, sorted(schedule.start.items())]
        except ReproError as exc:
            row = [type(exc).__name__, str(exc)]
        hasher.update(json.dumps([graph.name, row]).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_model_digest(name, population, monkeypatch):
    loops, kernels = population
    digest = _model_digest(make_scheduler(name), loops + kernels, monkeypatch)
    assert digest == MODEL_DIGESTS[name]


def test_spilp_start_digest(population):
    loops, kernels = population
    assert _start_digest("spilp", loops + kernels) == SPILP_START_DIGEST


def test_optreg_start_digest(population):
    loops, kernels = population
    graphs = [g for g in loops if g.name in OPTREG_LOOPS] + [
        g for g in kernels if g.name in OPTREG_KERNELS
    ]
    assert len(graphs) == len(OPTREG_LOOPS) + len(OPTREG_KERNELS)
    assert _start_digest("optreg", graphs) == OPTREG_START_DIGEST


# ----------------------------------------------------------------------
# Solver status -> result / typed error
# ----------------------------------------------------------------------
def _fake_milp(status, x=None, message="fake"):
    def fake(*args, **kwargs):
        return SimpleNamespace(status=status, x=x, message=message)

    return fake


@pytest.fixture(scope="module")
def daxpy_session():
    graph = next(
        loop.graph for loop in govindarajan_suite() if loop.name == "daxpy"
    )
    return SchedulingSession(graph, MACHINE)


@pytest.mark.parametrize("cls", [SPILPScheduler, OptRegScheduler])
class TestSolverStatus:
    def test_infeasible_fails_the_attempt(self, cls, daxpy_session,
                                          monkeypatch):
        monkeypatch.setattr(exact, "milp", _fake_milp(2))
        ii = daxpy_session.analysis.mii
        assert cls().attempt(daxpy_session, ii, None) is None

    def test_time_limit_without_incumbent_times_out(self, cls,
                                                     daxpy_session,
                                                     monkeypatch):
        monkeypatch.setattr(exact, "milp", _fake_milp(1))
        ii = daxpy_session.analysis.mii
        with pytest.raises(SolverTimeoutError) as info:
            cls(time_limit=7.0).attempt(daxpy_session, ii, None)
        message = str(info.value)
        assert cls.name in message.lower()
        assert "'daxpy'" in message
        assert f"II={ii}" in message
        assert "7.0s" in message

    @pytest.mark.parametrize("status", [3, 4, -1])
    def test_other_status_without_solution_fails(self, cls, status,
                                                 daxpy_session,
                                                 monkeypatch):
        monkeypatch.setattr(exact, "milp", _fake_milp(status))
        ii = daxpy_session.analysis.mii
        with pytest.raises(SolverError) as info:
            cls().attempt(daxpy_session, ii, None)
        assert not isinstance(info.value, SolverTimeoutError)
        assert f"II={ii}" in str(info.value)
