"""The benchmark's traced run (``perfbench/layers.py``) times layers by
swapping module and class attributes by name. A renamed or inlined
function would break ``perfbench/run.py --trace 1``, so every name it
swaps must exist on its owner, and the optimizer must still reach its
phases and the executors their layers through those names."""
import sys
from pathlib import Path

import pytest

from repro.core import optimizer
from repro.core.cost import CostModel, uniform_rates
from repro.runtime import kernels, sharon, streaming
from repro.synth_data import event_stream
from repro.workloads import traffic_workload

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers

        yield layers
    finally:
        sys.path.remove(str(PERFBENCH))


def swapped(layers):
    names = [(owner, attr) for owner, attr, *_ in layers.LOCAL_SPANS]
    names += [(owner, attr) for owner, attr, *_ in layers.SPARK_SPANS]
    names += [(owner, attr) for owner, attr, _ in layers.COUNTERS]
    names += [(kernels.SharedCache, attr) for attr, _ in layers.CACHE_GETTERS]
    return names + [(sharon, "make_kernel")]


def test_every_swapped_attribute_exists(layers):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in swapped(layers)
        if attr not in vars(owner)
    ]
    assert missing == []


def test_traced_sharon_optimizer_reports_its_phases(layers):
    from spans import Tracer

    wl = traffic_workload()
    # A low rate leaves conflicting candidates for the finder to search.
    cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
    before = {(owner, attr): vars(owner)[attr] for owner, attr in swapped(layers)}
    t = Tracer()
    with layers.installed(t):
        t.begin_op("plan")
        res = optimizer.sharon_optimizer(wl, cost, decompose=True)
        _, spans, counts = t.end_op()
    after = {(owner, attr): vars(owner)[attr] for owner, attr in swapped(layers)}
    assert after == before
    for name in (
        "optimizer.so",
        "ccspan.mine",
        "graph.build",
        "expand.expand",
        "gwmin.bound",
        "reduce.reduce",
        "planner.finder",
    ):
        assert name in spans
    assert counts["graph.vertices"] > 0
    assert counts["expand.options"] >= counts["graph.vertices"]
    assert counts["planner.plans_traversed"] > 0
    assert res.score > 0


@pytest.fixture(scope="module")
def traffic_run():
    wl = traffic_workload(within=120, slide=60)
    pdf = event_stream(
        n_events=300, types=sorted(wl.event_types), n_keys=2, duration=600, seed=3
    )
    cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
    plan = optimizer.sharon_optimizer(wl, cost, decompose=True).plan
    assert plan
    return wl, pdf, plan


def traced(layers, fn):
    """Run ``fn`` as one traced operation; return its span self times
    and counts."""
    from spans import Tracer

    t = Tracer()
    with layers.installed(t):
        t.begin_op("op")
        fn()
        _, spans, counts = t.end_op()
    return spans, counts


def test_traced_sharon_twin_reports_its_layers(layers, traffic_run):
    wl, pdf, plan = traffic_run
    spans, counts = traced(layers, lambda: sharon.run_plan_pandas(pdf, wl, plan))
    for name in (
        "sharon.group",
        "windows.explode",
        "sharon.compile",
        "kernels.type_index",
        "kernels.eval_query",
    ):
        assert name in spans
    assert counts["kernels.eval_query_calls"] > 0
    assert counts["kernels.shared_lookups"] > 0


def test_traced_micro_batch_reports_its_layers(layers, traffic_run):
    wl, pdf, _ = traffic_run
    ex = streaming.MicroBatchExecutor(wl)
    spans, counts = traced(layers, lambda: ex.process_batch(pdf))
    for name in (
        "streaming.group",
        "streaming.explode",
        "kernels.type_index",
        "streaming.chain_update",
    ):
        assert name in spans
    assert counts["streaming.chain_updates"] == len(ex.states)
