"""The Sharon runtime executor (paper Sections 2.2 and 3.3) as a
distributed dataflow.

``compile_plan`` turns a workload + sharing plan into a per-query
segment list (the "compiled sharing graph"); ``run_plan`` explodes the
stream into sliding windows, partitions by ``(wid, key)`` — the
``WHERE [vehicle]`` predicate makes partitions independent — and runs
:func:`eval_partition` on each partition via ``applyInPandas``. Inside a
partition every shared pattern's aggregate is built once and reused by
all queries sharing it; residual prefix/suffix segments run per query.
A-Seq (the Non-Shared method, §3.2) is the same executor with an empty
plan: ``run_plan(events, workload, None)``.

A true JVM physical operator is out of scope offline (DESIGN.md §2);
``applyInPandas`` over Catalyst's shuffle is the documented substitute.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.model import SharingCandidate, Workload
from . import windows
from .kernels import Segment, SharedCache, compile_segments, eval_query

_COLUMNS = ["wid", "key", "qid", "cnt"]
_OUT_SCHEMA = "wid long, key long, qid long, cnt double"
# float64 counts are exact integers only below 2^53.
_EXACT_LIMIT = 2.0**53


def compile_plan(
    workload: Workload, plan: list[SharingCandidate] | None
) -> dict[int, list[Segment]]:
    """Assign each query its plan-shared patterns and segment it.

    ``plan=None`` or an empty plan compiles every query as one private
    segment — the Non-Shared method (A-Seq). The result is plain data
    (picklable into Spark task closures)."""
    shared_of: dict[int, list[tuple[str, ...]]] = {q.qid: [] for q in workload}
    for cand in plan or []:
        for qid in cand.qids:
            shared_of[qid].append(cand.p)
    return {q.qid: compile_segments(q.pattern, shared_of[q.qid]) for q in workload}


def eval_partition(
    part: pd.DataFrame, spec: dict[int, list[Segment]]
) -> tuple[list[tuple], SharedCache]:
    """Evaluate every query of ``spec`` over one (wid, key) partition,
    sorted by time, through one SharedCache. Returns the nonzero
    (wid, key, qid, cnt) rows and the cache (for its build statistics).

    Raises ValueError once a count, or a level total of a shared reverse
    chain (whose per-START counts are that total minus prefix sums), reaches
    2^53, where float64 stops being exact."""
    times = part["time"].to_numpy(np.int64)
    types = part["type"].to_numpy(dtype="U")
    wid = int(part["wid"].iloc[0])
    key = int(part["key"].iloc[0])
    cache = SharedCache(times, types)
    rows = []
    for qid, segments in spec.items():
        cnt = eval_query(times, types, segments, cache)
        if cnt >= _EXACT_LIMIT or cache.reverse_total >= _EXACT_LIMIT:
            raise ValueError(
                f"(wid, key, qid) = ({wid}, {key}, {qid}): a sequence count "
                "reached 2^53, beyond float64's exact range"
            )
        if cnt > 0:
            rows.append((wid, key, qid, cnt))
    return rows, cache


def make_kernel(
    spec: dict[int, list[Segment]],
) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """Spark's per-partition kernel: :func:`eval_partition` on one
    (wid, key) group."""

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        rows, _ = eval_partition(pdf.sort_values("time", kind="stable"), spec)
        return pd.DataFrame(rows, columns=_COLUMNS)

    return kernel


def run_plan(
    events: DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
) -> DataFrame:
    """COUNT(*) per (window, key, query) for the whole workload.

    All queries share (within, slide) — the paper's assumption 2 — so
    the window explosion happens once for the workload.
    """
    within, slide = workload.window()
    exploded = windows.explode_windows(events, within=within, slide=slide)
    spec = compile_plan(workload, plan)
    return (
        exploded.groupBy("wid", "key")
        .applyInPandas(make_kernel(spec), schema=_OUT_SCHEMA)
    )


def run_plan_pandas(
    events: pd.DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
) -> tuple[pd.DataFrame, dict]:
    """Driver-local twin of :func:`run_plan` over a pandas stream.

    Used by benchmarks that need kernel-state statistics (C-matrix bytes,
    builds) which Spark task closures cannot report. Returns (counts,
    stats).
    """
    within, slide = workload.window()
    exploded = windows.explode_windows_pandas(events, within=within, slide=slide)
    spec = compile_plan(workload, plan)
    rows = []
    stats = {"partitions": 0, "c_builds": 0, "c_bytes": 0}
    for _, part in exploded.groupby(["wid", "key"], sort=True):
        part_rows, cache = eval_partition(part, spec)
        rows += part_rows
        stats["partitions"] += 1
        stats["c_builds"] += cache.builds
        stats["c_bytes"] += cache.state_bytes
    return pd.DataFrame(rows, columns=_COLUMNS), stats


def per_window_counts(counts: DataFrame) -> DataFrame:
    """RETURN COUNT(*) per query per window (summed over group keys)."""
    return counts.groupBy("qid", "wid").agg(F.sum("cnt").alias("cnt"))
