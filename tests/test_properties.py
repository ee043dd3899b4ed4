"""Property-based tests (hypothesis) on the core invariants.

Random loop bodies come from the same generator the Perfect-Club suite
uses, driven by a hypothesis-chosen seed and size, so shrinking reduces to
(seed, size) pairs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.ordering import hrms_order
from repro.core.scheduler import HRMSScheduler
from repro.engine import SchedulingSession
from repro.engine.mindist import factorise, solve
from repro.graph.traversal import is_acyclic, pala_order, asap_order
from repro.machine.configs import perfect_club_machine
from repro.mii.analysis import compute_mii
from repro.schedule.allocator import allocate_registers
from repro.schedule.buffers import buffer_requirements
from repro.schedule.lifetimes import compute_lifetimes
from repro.schedule.maxlive import max_live
from repro.schedule.verify import verify_schedule
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import simulate
from repro.workloads.synthetic import random_ddg

MACHINE = perfect_club_machine()

graph_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=4, max_value=32),  # size
)


def make_graph(params):
    seed, size = params
    return random_ddg(random.Random(seed), size, name=f"h{seed}_{size}")


@given(graph_params)
@settings(max_examples=60, deadline=None)
def test_hrms_schedules_are_valid_and_bounded(params):
    """HRMS: verifier-clean schedule with II >= MII on any valid body."""
    graph = make_graph(params)
    analysis = compute_mii(graph, MACHINE)
    schedule = HRMSScheduler().schedule(graph, MACHINE, analysis)
    verify_schedule(schedule)
    assert schedule.ii >= analysis.mii


@given(graph_params)
@settings(max_examples=40, deadline=None)
def test_ordering_is_a_permutation(params):
    graph = make_graph(params)
    order = hrms_order(graph, machine=MACHINE).order
    assert sorted(order) == sorted(graph.node_names())


@given(graph_params)
@settings(max_examples=30, deadline=None)
def test_simulator_confirms_maxlive(params):
    graph = make_graph(params)
    schedule = HRMSScheduler().schedule(graph, MACHINE)
    report = simulate(schedule, iterations=4 * schedule.stage_count + 2)
    assert report.peak_live_steady == max_live(schedule)


@given(graph_params)
@settings(max_examples=30, deadline=None)
def test_allocator_covers_maxlive(params):
    graph = make_graph(params)
    schedule = HRMSScheduler().schedule(graph, MACHINE)
    allocation = allocate_registers(schedule)
    lower = max_live(schedule)
    assert allocation.register_count >= lower
    # Guaranteed bound: the per-value tiling never exceeds the value
    # buffer sum (one register per overlapped instance) — but only when
    # the unroll degree is the exact lcm of the per-value degrees.  When
    # the lcm exceeds MAX_UNROLL and the degree falls back to the
    # maximum, some value's instances wrap the circle at a non-multiple
    # stride and genuinely need extra registers (e.g. a 2*II lifetime at
    # unroll 7 yields a C7 conflict cycle: chromatic number 3 > 2), so
    # the buffer bound is unattainable by *any* allocator.
    import math

    from repro.schedule.allocator import mve_unroll_degree

    degrees = [
        math.ceil(lifetime.length / schedule.ii)
        for lifetime in compute_lifetimes(schedule)
        if lifetime.length > 0
    ]
    # The allocator's own unroll choice tells us which regime we are in:
    # it equals the lcm exactly when no fallback happened.
    exact_unroll = not degrees or (
        mve_unroll_degree(schedule) == math.lcm(*degrees)
    )
    stores = sum(1 for op in graph.operations() if op.is_store)
    if exact_unroll:
        assert allocation.register_count <= (
            buffer_requirements(schedule) - stores
        )
    else:
        # Fallback regime: one extra register per wrapped value is the
        # provable ceiling for the strategies in play.
        assert allocation.register_count <= (
            buffer_requirements(schedule) - stores + len(degrees)
        )
    # Quality bound: within a small margin of the MaxLive lower bound.
    assert allocation.register_count <= lower + max(3, -(-lower // 4))


@given(graph_params)
@settings(max_examples=30, deadline=None)
def test_buffers_dominate_maxlive(params):
    """Buffers are an upper bound on the variant register requirement
    (Ning & Gao [18]) — modulo the +1-per-store term, which MaxLive does
    not count; compare against the value-only buffer sum."""
    graph = make_graph(params)
    schedule = HRMSScheduler().schedule(graph, MACHINE)
    stores = sum(1 for op in graph.operations() if op.is_store)
    value_buffers_total = buffer_requirements(schedule) - stores
    assert value_buffers_total >= max_live(schedule)


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_baselines_valid(params):
    graph = make_graph(params)
    for method in ("topdown", "bottomup", "frlc"):
        schedule = make_scheduler(method).schedule(graph, MACHINE)
        verify_schedule(schedule)


@given(graph_params)
@settings(max_examples=20, deadline=None)
def test_mindist_consistent_with_recmii(params):
    """mindist is feasible exactly when II >= RecMII."""
    graph = make_graph(params)
    analysis = compute_mii(graph, MACHINE)
    factors = factorise(graph)
    assert solve(factors, analysis.recmii) is not None
    if analysis.recmii > 1:
        assert solve(factors, analysis.recmii - 1) is None


@given(graph_params)
@settings(max_examples=20, deadline=None)
def test_cyclic_asap_respects_edges(params):
    graph = make_graph(params)
    analysis = compute_mii(graph, MACHINE)
    ii = analysis.mii
    asap = SchedulingSession(graph, MACHINE, analysis).cyclic_asap(ii)
    assert asap is not None
    for edge in graph.edges():
        if edge.src == edge.dst:
            continue
        latency = graph.operation(edge.src).latency
        assert (
            asap[edge.dst] + edge.distance * ii
            >= asap[edge.src] + latency
        )


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_lifetimes_start_at_producer_issue(params):
    graph = make_graph(params)
    schedule = HRMSScheduler().schedule(graph, MACHINE)
    for lifetime in compute_lifetimes(schedule):
        assert lifetime.start == schedule.issue_cycle(lifetime.producer)
        assert lifetime.end >= lifetime.start


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=4, max_value=24),
)
@settings(max_examples=25, deadline=None)
def test_acyclic_orders_are_topological(seed, size):
    from repro.workloads.synthetic import GeneratorProfile

    graph = random_ddg(
        random.Random(seed),
        size,
        profile=GeneratorProfile(recurrence_probability=0.0),
    )
    assert is_acyclic(graph)
    for order_fn in (asap_order, pala_order):
        order = order_fn(graph)
        assert sorted(order) == sorted(graph.node_names())
    # ASAP order must never place a consumer before its producer.
    position = {n: i for i, n in enumerate(asap_order(graph))}
    for edge in graph.edges():
        assert position[edge.src] < position[edge.dst]
