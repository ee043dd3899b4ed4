"""The condensation solve against the Floyd–Warshall reference.

:func:`repro.engine.mindist.closure` must equal the whole-graph
:func:`repro.engine.mindist.solve` element for element — and agree on
which IIs are infeasible.  The graphs cover every QA diversity profile, the bundled kernels under both
lowerings, and random graphs with several SCCs, parallel edges and
self-loops; the IIs run from 1 (infeasible) to MII+5.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.mindist import (
    NO_PATH,
    _NO_PATH_CUTOFF,
    closure,
    factorise,
    solve,
)
from repro.frontend.kernels import kernel_names, kernel_source
from repro.frontend.pipeline import compile_source, profile_by_name
from repro.graph.builder import GraphBuilder
from repro.graph.ddg import DependenceGraph
from repro.graph.edges import DependenceKind, Edge
from repro.graph.ops import FADD, FMUL, MEM, Operation
from repro.machine.configs import perfect_club_machine
from repro.mii.analysis import compute_mii
from repro.qa.profiles import fuzz_profiles

PROFILES = {profile.name: profile for profile in fuzz_profiles()}
MACHINE = perfect_club_machine()


def assert_closure_matches(graph, iis):
    """``closure`` equals the reference at every II of *iis*; returns
    how many IIs were feasible."""
    factors = factorise(graph)
    feasible = 0
    for ii in iis:
        reference = solve(factors, ii)
        dist = closure(factors, ii)
        if reference is None:
            assert dist is None, (graph.name, ii)
            continue
        feasible += 1
        assert dist is not None, (graph.name, ii)
        assert not dist.flags.writeable
        assert np.array_equal(dist, reference), (graph.name, ii)
    return feasible


def mii_of(graph):
    return compute_mii(graph, MACHINE).mii


# ----------------------------------------------------------------------
# Graph families
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_closure_equals_floyd_warshall_on_every_profile(profile_name, seed):
    graph = PROFILES[profile_name].build(seed, prefix="closure")
    assert_closure_matches(graph, range(1, mii_of(graph) + 6))


@pytest.mark.parametrize("lowering", ["perfect_club", "govindarajan"])
@pytest.mark.parametrize("kernel", kernel_names())
def test_closure_equals_floyd_warshall_on_kernels(kernel, lowering):
    graph = compile_source(
        kernel_source(kernel), name=kernel, profile=profile_by_name(lowering)
    ).graph
    mii = mii_of(graph)
    assert assert_closure_matches(graph, range(1, mii + 6)) >= 6


@st.composite
def multi_scc_graphs(draw):
    """Random graphs with several SCCs, parallel edges and self-loops.

    A few cycle groups are wired internally into rings, then joined by
    forward edges; extra random edges add parallels (same endpoints,
    another distance or kind) and self-loops.  Every cycle carries a
    positive distance, so the graph is a valid loop body.
    """
    n = draw(st.integers(min_value=1, max_value=14))
    graph = DependenceGraph("multi-scc")
    for i in range(n):
        graph.add_operation(Operation(
            f"n{i}",
            latency=draw(st.integers(1, 4)),
            opclass=draw(st.sampled_from([FADD, FMUL, MEM])),
        ))
    # Cut program order into groups; each group of two or more is a
    # ring closed by a loop-carried edge.
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=4)))
    bounds = [0, *[c for c in cuts if c < n], n]
    for lo, hi in zip(bounds, bounds[1:]):
        for i in range(lo, hi - 1):
            graph.add_edge(Edge(f"n{i}", f"n{i + 1}"))
        if hi - lo >= 2:
            graph.add_edge(
                Edge(f"n{hi - 1}", f"n{lo}", distance=draw(st.integers(1, 3)))
            )
    kinds = list(DependenceKind)
    for _ in range(draw(st.integers(0, 2 * n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(kinds))
        if j > i:
            distance = draw(st.integers(0, 3))  # forward: any distance
        else:
            distance = draw(st.integers(1, 3))  # backward or self-loop
        graph.add_edge(Edge(f"n{i}", f"n{j}", distance=distance, kind=kind))
    graph.validate()
    return graph


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=multi_scc_graphs())
def test_closure_equals_floyd_warshall_on_multi_scc_graphs(graph):
    assert_closure_matches(graph, range(1, mii_of(graph) + 6))


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_no_edges():
    graph = (
        GraphBuilder("flat").op("a").op("b", latency=3).op("c").build()
    )
    assert assert_closure_matches(graph, range(1, 4)) == 3
    dist = closure(factorise(graph), 1)
    assert np.all(dist == NO_PATH)


def test_empty_graph():
    factors = factorise(DependenceGraph("empty"))
    assert closure(factors, 1).shape == (0, 0)
    assert solve(factors, 1).shape == (0, 0)


def test_one_op():
    graph = GraphBuilder("one").op("a", latency=2).build()
    assert assert_closure_matches(graph, range(1, 4)) == 3
    dist = closure(factorise(graph), 1)
    assert dist.tolist() == [[NO_PATH]]


def test_self_loop_alone_decides_feasibility():
    # x -> x (latency 5, distance 1) is the only cycle: II < 5 is
    # infeasible through the self-edge check alone, and at a feasible II
    # the self-loop never enters the matrix (x keeps a NO_PATH diagonal).
    graph = (
        GraphBuilder("selfloop")
        .op("x", latency=5)
        .op("y", deps=("x",))
        .edge("x", "x", distance=1)
        .build()
    )
    assert assert_closure_matches(graph, range(1, 9)) == 4
    factors = factorise(graph)
    assert closure(factors, 4) is None
    dist = closure(factors, 5)
    assert dist[0, 0] == NO_PATH
    assert dist[0, 1] == 5


def test_one_scc_covering_the_whole_loop():
    builder = GraphBuilder("ring")
    names = [f"r{i}" for i in range(7)]
    builder.op(names[0], FADD, latency=2)
    for i, (prev, name) in enumerate(zip(names, names[1:])):
        builder.op(name, FMUL, latency=1 + i % 3, deps=(prev,))
    builder.edge(names[-1], names[0], distance=2)
    builder.edge(names[4], names[1], distance=1)
    graph = builder.build()
    factors = factorise(graph)
    assert len(set(factors.component.tolist())) == 1
    assert assert_closure_matches(graph, range(1, mii_of(graph) + 6)) == 6
    dist = closure(factors, mii_of(graph))
    assert np.all(dist > _NO_PATH_CUTOFF)  # every pair is on a cycle


def test_nodes_on_no_cycle_keep_a_no_path_diagonal():
    graph = (
        GraphBuilder("mixed")
        .op("a")
        .op("b", deps=("a",))
        .op("c", deps=("b",))
        .edge("c", "b", distance=1)
        .op("d", deps=("c",))
        .build()
    )
    dist = closure(factorise(graph), 4)
    assert dist[0, 0] == NO_PATH and dist[3, 3] == NO_PATH
    assert dist[1, 1] == dist[2, 2] == 2 - 4  # the b <-> c cycle
