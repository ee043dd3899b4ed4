"""Pinned digests of the heuristic schedulers' output.

A SHA-256 over ``(graph name, II, sorted start map)`` holds the
schedules of every window-scanning heuristic still while the placement
code changes underneath (the placement ladder, the ejection routine,
the cyclic ASAP/ALAP frame).  A scheduler that raises contributes its
error type and message instead.

* Tier 1 — the bundled kernels under both lowerings, every QA profile
  over 20 seeds, the Govindarajan suite and the first 100 Perfect-Club
  loops (308 graphs) under all seven heuristics.
* ``slow`` — every Perfect-Club loop, without ``slack`` (one loop,
  ``pc0220``, takes minutes under it; see ROADMAP item 8).
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice

import pytest

from repro.errors import ReproError
from repro.machine.configs import perfect_club_machine
from repro.schedulers.registry import make_scheduler
from repro.workloads.govindarajan import govindarajan_suite
from repro.workloads.perfectclub import perfect_club_suite

from test_circuit_parity import _digest_graphs

MACHINE = perfect_club_machine()

HEURISTICS = ("hrms", "sms", "slack", "ims", "topdown", "bottomup", "frlc")

#: Per-scheduler digests over :func:`_tier1_graphs`.
TIER1_DIGESTS = {
    "hrms": "474fadf48b71dae09d31320f4c5d965ee981b081120c3e6e2754272143d00445",
    "sms": "3b06ccf73e8fcb52a5a963201cbc92a62798aab59d4b1d7a5f18ed9c128bfe2d",
    "slack": (
        "8393eaf27628e5f087fc0bb6d244c3e72dd16a32b247a39e1f1ca79c0c68ae08"
    ),
    "ims": "db10bf6d3fd3e80464d07e2ed8b464bcca396ea13db5be9afdb4b41139949175",
    "topdown": (
        "362b0a89e45b54819d90e101d620174f9ab4204b5b962e715f67a47538fb23ab"
    ),
    "bottomup": (
        "bd6f06e40ec4af894513f3988af3e61b8ac7d473a7d7e63106205e2811847cd9"
    ),
    "frlc": "e400d3f1c1d57b9dd181dddecc0ae53b24ec8ea5200c19949655086c24e126b2",
}

#: Per-scheduler digests over the whole Perfect-Club suite.
PERFECT_CLUB_DIGESTS = {
    "hrms": "c4f0d2294908a5a9f698807994c976194bc2689a90ee30662d0af143081504cc",
    "sms": "b07ef3adbabe4afa6d5989ce3e250b53ffcc6538547859cc3a5a380fc0769008",
    "ims": "e276db3dedf9aafd02a305c8cbf8c0cfd2a74627fa880e09e1289e209278dd40",
    "topdown": (
        "3c254aed95cda730466e179364de027b03eff9cf53ba3504192cf5ba7b5ccdfa"
    ),
    "bottomup": (
        "a37fe24081cb9964feab73a9dd0aaad48db38fa1e1a8b3dcd9bed8b046d997d7"
    ),
    "frlc": "57992e0f34dcd57b1672f5dac7ca92cba077e55d5acc8f54a1fd5efac163a0aa",
}


def _tier1_graphs():
    """Kernels x 2 lowerings, QA profiles x 20 seeds, Govindarajan and
    the first 100 Perfect-Club loops."""
    graphs = _digest_graphs()
    kernels = list(islice(graphs, 32 * 2))
    fuzz = [g for i, g in enumerate(islice(graphs, 6 * 100)) if i % 100 < 20]
    return (
        kernels
        + fuzz
        + [loop.graph for loop in govindarajan_suite()]
        + [loop.graph for loop in perfect_club_suite(n_loops=100)]
    )


def _digest(scheduler_name, graphs) -> str:
    hasher = hashlib.sha256()
    for graph in graphs:
        try:
            schedule = make_scheduler(scheduler_name).schedule(graph, MACHINE)
            row = [schedule.ii, sorted(schedule.start.items())]
        except ReproError as exc:
            row = [type(exc).__name__, str(exc)]
        hasher.update(json.dumps([graph.name, row]).encode())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def tier1_graphs():
    graphs = _tier1_graphs()
    assert len(graphs) == 32 * 2 + 6 * 20 + 24 + 100
    return graphs


@pytest.mark.parametrize("scheduler", HEURISTICS)
def test_tier1_schedule_digest(scheduler, tier1_graphs):
    assert _digest(scheduler, tier1_graphs) == TIER1_DIGESTS[scheduler]


@pytest.mark.slow
@pytest.mark.parametrize(
    "scheduler", [name for name in HEURISTICS if name != "slack"]
)
def test_perfect_club_schedule_digest(scheduler):
    graphs = [loop.graph for loop in perfect_club_suite()]
    assert len(graphs) == 1258
    assert _digest(scheduler, graphs) == PERFECT_CLUB_DIGESTS[scheduler]
