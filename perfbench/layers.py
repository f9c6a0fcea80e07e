"""Which calls the traced run times, and what it counts there.

Every entry names an attribute that ``repro`` code looks up at call
time: a module global (``sharon.eval_query`` inside ``run_plan_pandas``)
or a method on a class. Replacing that attribute with a timing wrapper
puts a span around each call into the layer without editing the
program. :func:`installed` swaps the wrappers in and restores the
originals on exit, so untraced operations run the program untouched.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import repro.core.expand as expand
import repro.core.graph as graph
import repro.core.optimizer as optimizer
import repro.core.reduce as reduce
import repro.runtime.kernels as kernels
import repro.runtime.sharon as sharon
import repro.runtime.streaming as streaming
import repro.runtime.windows as windows

from spans import Tracer


def _rows_out(t: Tracer, args, out) -> None:
    t.count("windows.rows_out", len(out))


def _graph_size(t: Tracer, args, g) -> None:
    t.count("graph.vertices", len(g.vertices))
    t.count("graph.edges", g.n_edges)


def _options(t: Tracer, args, g) -> None:
    t.count("expand.options", len(g.vertices))


def _reduced(t: Tracer, args, red) -> None:
    t.count("reduce.pruned", len(red.pruned))
    t.count("reduce.conflict_free", len(red.conflict_free))


def _search(t: Tracer, args, out) -> None:
    # sharon_optimizer passes its PlanSearchStats as the third argument.
    stats = args[2]
    t.count("planner.plans_traversed", stats.total_plans)
    t.count("planner.peak_level_plans", stats.peak_level_plans)


def _calls(metric: str):
    def post(t: Tracer, args, out) -> None:
        t.count(metric)

    return post


# (owner, attribute, span name, hook run on the call's arguments and result)
LOCAL_SPANS = [
    (sharon, "run_plan_pandas", "sharon.group", None),
    (windows, "explode_windows_pandas", "windows.explode", _rows_out),
    (sharon, "compile_plan", "sharon.compile", None),
    (kernels, "TypeIndex", "kernels.type_index", _calls("kernels.type_index_builds")),
    (sharon, "eval_query", "kernels.eval_query", _calls("kernels.eval_query_calls")),
    (optimizer, "sharon_optimizer", "optimizer.so", None),
    (optimizer, "sharable_patterns", "ccspan.mine", None),
    (optimizer, "build_graph", "graph.build", _graph_size),
    (optimizer, "expand_graph", "expand.expand", _options),
    (optimizer, "guaranteed_weight", "gwmin.bound", None),
    (reduce, "reduce_graph", "reduce.reduce", _reduced),
    (optimizer, "find_optimal_plan_decomposed", "planner.finder", _search),
    (streaming.MicroBatchExecutor, "process_batch", "streaming.group", None),
    (streaming, "explode_windows_pandas", "streaming.explode", None),
    (streaming.ChainState, "update", "streaming.chain_update",
     _calls("streaming.chain_updates")),
    (streaming.MicroBatchExecutor, "results", "streaming.results", None),
]

# A Spark operation builds its plan in the driver and runs the kernel in
# Python workers. The kernel is pickled together with the module globals
# it calls, so the in-process kernel layers must stay unwrapped there.
SPARK_SPANS = [
    (sharon, "run_plan", "spark.build", None),
    (sharon, "compile_plan", "sharon.compile", None),
]

# Shared-aggregate getters: a span each, plus lookups and the builds the
# lookup caused (SharedCache.builds grows only on a cache miss).
CACHE_GETTERS = [
    ("get_forward", "kernels.forward"),
    ("get_reverse", "kernels.reverse"),
    ("get", "kernels.c_matrix"),
]

# Hot calls that are only counted: a span each would cost more than the
# work it measures.
COUNTERS = [
    (graph, "in_conflict", "graph.in_conflict_calls"),
    (graph.SharonGraph, "neighbors", "graph.neighbors_calls"),
    (expand, "conflict_causing_queries", "expand.conflict_checks"),
]


def _span(t: Tracer, fn, name: str, post):
    def wrapper(*args, **kwargs):
        t.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            t.close()
        if post is not None:
            post(t, args, out)
        return out

    return wrapper


def _cache_getter(t: Tracer, fn, name: str):
    def getter(cache, pattern):
        before = cache.builds
        t.open(name)
        try:
            return fn(cache, pattern)
        finally:
            t.close()
            t.count("kernels.shared_lookups")
            t.count("kernels.shared_builds", cache.builds - before)

    return getter


def _counter(t: Tracer, fn, metric: str):
    cell = t.cell(metric)

    def wrapper(*args):
        cell[0] += 1
        return fn(*args)

    return wrapper


def _timed_make_kernel(make_kernel, busy):
    """Wrap Spark's per-group kernel so each task adds its kernel time
    (seconds) to the ``busy`` accumulator."""

    def timed_make_kernel(spec):
        kernel = make_kernel(spec)

        def timed_kernel(pdf):
            t0 = time.perf_counter()
            out = kernel(pdf)
            busy.add(time.perf_counter() - t0)
            return out

        return timed_kernel

    return timed_make_kernel


@contextmanager
def installed(t: Tracer, kernel_busy=None):
    """Trace every layer while the block runs. ``kernel_busy`` is a
    Spark accumulator: when given, the Spark layers are traced instead
    of the in-process ones, and each kernel call adds its time to it."""
    saved = []

    def swap(owner, attr, make):
        orig = vars(owner)[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    try:
        spark = kernel_busy is not None
        for owner, attr, name, post in SPARK_SPANS if spark else LOCAL_SPANS:
            swap(owner, attr, lambda f: _span(t, f, name, post))
        if spark:
            swap(sharon, "make_kernel", lambda f: _timed_make_kernel(f, kernel_busy))
        else:
            for attr, name in CACHE_GETTERS:
                swap(kernels.SharedCache, attr, lambda f: _cache_getter(t, f, name))
            for owner, attr, metric in COUNTERS:
                swap(owner, attr, lambda f: _counter(t, f, metric))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
