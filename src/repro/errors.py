"""Exception hierarchy for the HRMS reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """A dependence graph is malformed or an operation on it is invalid."""


class DuplicateOperationError(GraphError):
    """An operation name was added to a graph twice."""

    def __init__(self, name: str) -> None:
        super().__init__(f"operation {name!r} already exists in the graph")
        self.name = name


class UnknownOperationError(GraphError):
    """An edge or query referenced an operation not present in the graph."""

    def __init__(self, name: str) -> None:
        super().__init__(f"operation {name!r} is not in the graph")
        self.name = name


class CyclicGraphError(GraphError):
    """An algorithm that requires an acyclic graph was handed a cycle."""


class ZeroDistanceCycleError(GraphError):
    """The graph contains a dependence cycle whose total distance is zero.

    Such a loop body is impossible to execute (an operation would depend on
    itself within the same iteration), so it is rejected at validation time.
    """


class CircuitLimitExceeded(GraphError):
    """A graph has more elementary circuits than the configured cap.

    Deterministic for a given graph and cap, so a retry cannot help:
    the service fails such a job on its first attempt.
    """


class MachineError(ReproError):
    """A machine model description is invalid."""


class UnknownResourceError(MachineError):
    """An operation requests a functional-unit class the machine lacks."""

    def __init__(self, resource: str) -> None:
        super().__init__(f"machine has no functional-unit class {resource!r}")
        self.resource = resource


class SchedulingError(ReproError):
    """A scheduler failed to produce a valid schedule."""


class IterationLimitError(SchedulingError):
    """The II search exceeded its upper bound without finding a schedule."""

    def __init__(self, ii_limit: int) -> None:
        super().__init__(
            f"no feasible schedule found for any II up to {ii_limit}"
        )
        self.ii_limit = ii_limit


class ScheduleVerificationError(ReproError):
    """A produced schedule violates a dependence or resource constraint."""


class AllocationError(ReproError):
    """Register allocation could not satisfy the request."""


class SpillError(ReproError):
    """Spill insertion failed to bring register pressure under the budget."""


class SolverError(SchedulingError):
    """The ILP backend (SPILP) failed or timed out."""


class SolverTimeoutError(SolverError):
    """The MILP hit its time limit before finding any incumbent.

    Distinct from :class:`SolverError` so callers can tell "the budget
    ran out — inconclusive" apart from "the solver failed"; the QA
    campaign counts the former as a skip, not an oracle failure.
    """


class WorkloadError(ReproError):
    """A workload definition or generator was misused."""


class ServiceError(ReproError):
    """Base class for errors raised by the scheduling service layer."""


class ArtifactError(ServiceError):
    """A stored artifact is unreadable or has an unsupported schema."""


class JobError(ServiceError):
    """A job request is malformed or references unknown entities."""


class DeadlineExceededError(ServiceError):
    """A job ran past its per-request deadline and was cancelled.

    Raised cooperatively (the scheduler's II search polls
    :func:`repro.cancel.check` between attempts), so a timed-out job
    stops at the next attempt boundary rather than mid-placement.
    Settles the job in the distinct ``timeout`` state — retrying cannot
    help, but the failure is the budget's fault, not the request's.
    """


class QueueFullError(ServiceError):
    """The job queue is at its configured depth cap (backpressure).

    Mapped to HTTP 429 + ``Retry-After`` by the API layer so clients
    shed load instead of deepening an already-saturated queue.
    """


class FrontendError(ReproError):
    """Base class for errors raised by the loop-language front end."""


class LexError(FrontendError):
    """The source text contains a character sequence that is not a token."""


class ParseError(FrontendError):
    """The token stream does not match the loop-language grammar."""


class SemanticError(FrontendError):
    """The program is grammatical but violates a language rule."""
