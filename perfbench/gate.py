"""Output checks applied to every timed operation of the benchmark.

Counts are compared exactly, never within a tolerance: every engine
sums the same integer-valued float64 products, which stay exact while
each count is below 2^53. ``check_exact_range`` fails any result past
that bound, so an equality the benchmark reports is a real one.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.core.model import Workload
from repro.oracle import _canon
from repro.oracle_sql import workload_count_sql
from repro.runtime.windows import explode_windows_pandas

KEY = ["wid", "key", "qid"]
EXACT_LIMIT = 2.0**53


class GateError(Exception):
    """An operation's output failed a check."""


def canonical(counts: pd.DataFrame) -> pd.DataFrame:
    """Rows sorted by (wid, key, qid), columns and dtypes fixed."""
    out = counts[KEY + ["cnt"]].astype(
        {"wid": "int64", "key": "int64", "qid": "int64", "cnt": "float64"}
    )
    return out.sort_values(KEY, kind="stable").reset_index(drop=True)


def check_exact_range(counts: pd.DataFrame, what: str) -> None:
    """Fail when a count is not a finite value float64 holds exactly."""
    cnt = counts["cnt"].to_numpy(np.float64)
    if len(cnt) == 0:
        raise GateError(f"{what}: no result rows")
    if not np.isfinite(cnt).all():
        raise GateError(f"{what}: non-finite count")
    top = float(cnt.max())
    if top >= EXACT_LIMIT:
        raise GateError(f"{what}: count {top:.6g} >= 2^53, float64 is inexact")


def check_same(got: pd.DataFrame, want: pd.DataFrame, what: str) -> None:
    """Exact equality per (wid, key, qid); ``want`` is canonical."""
    check_exact_range(got, what)
    got = canonical(got)
    if len(got) != len(want):
        raise GateError(f"{what}: {len(got)} rows, reference has {len(want)}")
    for col in KEY + ["cnt"]:
        diff = np.flatnonzero(got[col].to_numpy() != want[col].to_numpy())
        if len(diff):
            i = int(diff[0])
            raise GateError(
                f"{what}: {len(diff)} rows differ in {col}; first "
                f"{got.iloc[i].to_dict()} vs {want.iloc[i].to_dict()}"
            )


def check_plan(result, reference) -> None:
    """A re-planned workload must give the reference plan and score."""
    keys = sorted(c.key() for c in result.plan)
    if result.score != reference.score or keys != sorted(
        c.key() for c in reference.plan
    ):
        raise GateError(
            f"plan changed: score {result.score} vs {reference.score}, "
            f"{len(keys)} vs {len(reference.plan)} candidates"
        )


def check_oracle(
    workload: Workload,
    events: pd.DataFrame,
    engines: dict[str, pd.DataFrame],
    temp_dir: str,
) -> None:
    """Diff each engine's counts on ``events`` against DuckDB's l-way
    self-join, in :mod:`repro.oracle`'s canonical form."""
    q0 = workload[0]
    ev = explode_windows_pandas(events, within=q0.within, slide=q0.slide)
    con = duckdb.connect(config={"temp_directory": temp_dir})
    try:
        con.register("ev", ev)
        expected = con.execute(
            workload_count_sql({q.qid: q.pattern for q in workload})
        ).fetchdf()
    finally:
        con.close()
    if expected.empty:
        raise GateError("oracle stream matches no query; the check is void")
    for name, got in engines.items():
        check_exact_range(got, f"{name} on the oracle stream")
        try:
            pd.testing.assert_frame_equal(
                _canon(got[expected.columns.tolist()]),
                _canon(expected),
                check_dtype=False,
            )
        except AssertionError as e:
            raise GateError(f"{name} differs from the DuckDB oracle: {e}") from e
