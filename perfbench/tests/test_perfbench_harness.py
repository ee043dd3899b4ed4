"""Self-tests of the benchmark harness (not of the program it measures)."""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hrmsbench  # noqa: E402

hrmsbench.require_source_tree()

from hrmsbench import WORK_DIR, layers, workloads  # noqa: E402
from hrmsbench.stats import TooFewSamples, percentile  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def _remove_work_dir():
    yield
    shutil.rmtree(WORK_DIR, ignore_errors=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_requests(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    other = workloads.build(name, 8)
    assert len(first) >= 100
    assert first.digest() == again.digest()
    assert first.labels == again.labels
    assert first.digest() != other.digest()


def test_recurrence_dense_stays_under_the_circuit_cap():
    from repro.graph.circuits import elementary_circuits

    workload = workloads.build("recurrence-dense", 1)
    counts = [
        len(elementary_circuits(workload.graph_for(index)))
        for index in range(len(workload))
    ]
    # elementary_circuits raises past its 50,000 cap; stay far below it.
    assert max(counts) < 10_000
    assert min(counts) > 0


def _wrapped_attributes():
    tracer = layers.LayerTracer()
    return {
        (id(owner), attribute): vars(owner)[attribute]
        for owner, attribute, _, _ in tracer._targets()
    }


def test_wrappers_are_removed_after_the_traced_run():
    before = _wrapped_attributes()
    workload = workloads.build("kernel-mix", 3).head(20)
    tracer = layers.LayerTracer()
    with tracer:
        assert _wrapped_attributes() != before
        layers.replay(workload, tracer)
    assert _wrapped_attributes() == before
    seen = tracer.totals()
    layers.replay(workload)
    assert tracer.totals() == seen  # the untraced replay saw no wrapper


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_self_times_telescope_to_the_root_span():
    tracer = layers.LayerTracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        tracer.call("machine.mrt", leaf)
        tracer.call("machine.mrt", leaf)

    began = time.perf_counter()
    tracer.call(layers.ROOT_LAYER, lambda: tracer.call("engine.bounds", middle))
    wall = time.perf_counter() - began
    totals = tracer.totals()
    assert totals["machine.mrt"][1] == 2
    assert sum(seconds for seconds, _ in totals.values()) == pytest.approx(
        wall, rel=0.05
    )
    assert totals["machine.mrt"][0] >= 0.004


def test_replay_self_times_add_up_to_its_wall_time():
    workload = workloads.build("recurrence-dense", 2).head(4)
    tracer = layers.LayerTracer()
    with tracer:
        run = layers.replay(workload, tracer)
    assert run.failed == 0
    totals = tracer.totals()
    attributed = sum(seconds for seconds, _ in totals.values())
    assert attributed <= run.wall_s
    assert attributed >= 0.9 * run.wall_s
    assert totals["mii.circuits"][1] == len(workload)
    assert tracer.counts()["mii.circuits.found"] > 0
