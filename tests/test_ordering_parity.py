"""Pinned digests of the HRMS pre-ordering and the acyclic topological
order.

Two SHA-256 digests hold :func:`hrms_order` and
:func:`acyclic_topological_order` still while the pre-ordering code
changes underneath:

* the real populations — the bundled kernels under both lowerings,
  every QA profile over 100 seeds, the Perfect-Club suite and the
  Govindarajan suite;
* the ``dense_graph`` family of ``tests/test_circuit_parity.py``,
  pinned separately, because its parallel loop-carried edges are the
  one place the working graph's backward-edge removal shows.  Only a
  graph with such an edge (a hop that carries a dropped backward key
  next to an edge that is not dropped) may differ from the order the
  previous per-edge removal produced; the others are pinned on their
  own digest too.

Every valid ``dense_graph`` also schedules with the three schedulers
that order on the acyclic working graph.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.ordering import hrms_order
from repro.errors import GraphError
from repro.machine.configs import perfect_club_machine
from repro.mii.analysis import compute_mii
from repro.mii.recurrences import all_backward_edge_keys
from repro.schedulers.registry import make_scheduler
from repro.schedulers.topdown import acyclic_topological_order
from repro.workloads.govindarajan import govindarajan_suite
from repro.workloads.perfectclub import perfect_club_suite

from test_circuit_parity import _digest_graphs, dense_graph

MACHINE = perfect_club_machine()

#: Digest over the real populations; identical to the per-edge removal.
REAL_DIGEST = (
    "2a58b8424c84f3e06d7f3237a6aa5ff8be7c3b5be9442a4bd875b6147a0a13c8"
)
#: Digest over the ``dense_graph`` family with no surviving parallel
#: loop-carried edge; identical to the per-edge removal.
DENSE_PLAIN_DIGEST = (
    "a70187d819de486935b81b1295fb38b22b4b692f7eaf5ec1bafd77a5f0c8de6f"
)
#: Digest over the whole ``dense_graph`` family.
DENSE_DIGEST = (
    "c000c37f1c5b6f40d05d81eb8df85aa88d051ea236e0a22bdbf7e13487d0f4f3"
)


def _summary(graph, analysis):
    if analysis is None:
        return None
    rows = []
    for order in (
        lambda: hrms_order(graph, analysis).order,
        lambda: acyclic_topological_order(graph, analysis),
    ):
        try:
            rows.append(order())
        except GraphError as exc:
            rows.append([type(exc).__name__, str(exc)])
    return rows


def _analyse(graph):
    try:
        return compute_mii(graph, MACHINE)
    except GraphError:
        return None


def _surviving_parallel_backward_edge(graph, analysis) -> bool:
    """Does a hop carry a dropped backward key next to a kept edge?"""
    if analysis is None:
        return False
    dropped = all_backward_edge_keys(analysis.subgraphs)
    hops = {(src, dst) for src, dst, _, _ in dropped}
    return any(
        (edge.src, edge.dst) in hops and edge.key not in dropped
        for edge in graph.edges()
    )


def _real_graphs():
    graphs = list(_digest_graphs())[: 32 * 2 + 6 * 100]
    graphs += [loop.graph for loop in perfect_club_suite()]
    graphs += [loop.graph for loop in govindarajan_suite()]
    return graphs


def test_real_population_digest():
    hasher = hashlib.sha256()
    graphs = _real_graphs()
    for graph in graphs:
        analysis = _analyse(graph)
        hasher.update(
            json.dumps([graph.name, _summary(graph, analysis)]).encode()
        )
    assert len(graphs) == 32 * 2 + 6 * 100 + 1258 + 24
    assert hasher.hexdigest() == REAL_DIGEST


def test_dense_family_digest():
    every = hashlib.sha256()
    plain = hashlib.sha256()
    parallel = 0
    for graph in list(_digest_graphs())[-200:]:
        analysis = _analyse(graph)
        row = json.dumps([graph.name, _summary(graph, analysis)]).encode()
        every.update(row)
        if _surviving_parallel_backward_edge(graph, analysis):
            parallel += 1
        else:
            plain.update(row)
    assert parallel > 0
    assert plain.hexdigest() == DENSE_PLAIN_DIGEST
    assert every.hexdigest() == DENSE_DIGEST


@pytest.mark.parametrize("scheduler", ["hrms", "topdown", "bottomup"])
def test_every_valid_dense_graph_schedules(scheduler, assert_valid):
    scheduled = 0
    for seed in range(200):
        graph = dense_graph(seed)
        analysis = _analyse(graph)
        if analysis is None:
            continue
        assert_valid(
            make_scheduler(scheduler).schedule(graph, MACHINE, analysis)
        )
        scheduled += 1
    assert scheduled == 196
