"""End-to-end engine correctness on Spark: every executor (A-Seq kernel,
Sharon shared kernel, Catalyst chain, Flink-like and SPASS-like
two-step) must agree with the DuckDB n-way self-join oracle on the same
window-exploded stream — per (query, window, key)."""
import pandas as pd
import pytest

from repro.core.cost import CostModel
from repro.core.model import Workload
from repro.core.optimizer import greedy_optimizer, sharon_optimizer
from repro.oracle import assert_equivalent
from repro.oracle_sql import seq_count_sql, workload_count_sql
from repro.runtime.aseq_sql import run_aseq_sql, run_query_sql
from repro.runtime.sharon import per_window_counts, run_plan, run_plan_pandas
from repro.runtime.twostep import flink_like, spass_like
from repro.runtime.windows import explode_windows_pandas
from repro.synth_data import event_stream, stream_to_spark
from repro.workloads import (
    purchase_workload,
    rates_from_stream,
    traffic_workload,
)

WITHIN, SLIDE = 120, 60


@pytest.fixture(scope="module")
def traffic():
    wl = traffic_workload(within=WITHIN, slide=SLIDE)
    pdf = event_stream(
        n_events=300,
        types=sorted(wl.event_types),
        n_keys=4,
        duration=600,
        seed=11,
    )
    return wl, pdf


@pytest.fixture(scope="module")
def traffic_spark(spark, traffic):
    _, pdf = traffic
    return stream_to_spark(spark, pdf)


@pytest.fixture(scope="module")
def traffic_exploded(traffic):
    _, pdf = traffic
    return explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)


def _wl_sql(wl: Workload) -> str:
    return workload_count_sql({q.qid: q.pattern for q in wl})


class TestASeqEngine:
    def test_against_oracle(self, traffic, traffic_spark, traffic_exploded):
        wl, _ = traffic
        got = run_plan(traffic_spark, wl, None).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_single_query_catalyst_chain(
        self, traffic, traffic_spark, traffic_exploded
    ):
        wl, _ = traffic
        q = wl[0]
        got = run_query_sql(traffic_spark, q).select("wid", "key", "cnt")
        assert_equivalent(got, seq_count_sql(q.pattern), ev=traffic_exploded)

    def test_catalyst_workload(self, traffic, traffic_spark, traffic_exploded):
        wl, _ = traffic
        got = run_aseq_sql(traffic_spark, wl).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)


class TestSharonEngine:
    @pytest.fixture(scope="class")
    def optimal_plan(self, traffic):
        wl, pdf = traffic
        cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
        return sharon_optimizer(wl, cost).plan

    def test_plan_is_nonempty(self, optimal_plan):
        assert len(optimal_plan) >= 1

    def test_shared_against_oracle(
        self, traffic, traffic_spark, traffic_exploded, optimal_plan
    ):
        wl, _ = traffic
        got = run_plan(traffic_spark, wl, optimal_plan).select(
            "qid", "wid", "key", "cnt"
        )
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_greedy_plan_against_oracle(
        self, traffic, traffic_spark, traffic_exploded
    ):
        wl, pdf = traffic
        cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
        plan = greedy_optimizer(wl, cost).plan
        got = run_plan(traffic_spark, wl, plan).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_pandas_twin_matches_spark(
        self, traffic, traffic_spark, optimal_plan
    ):
        wl, pdf = traffic
        spark_res = (
            run_plan(traffic_spark, wl, optimal_plan)
            .toPandas()
            .sort_values(["qid", "wid", "key"])
            .reset_index(drop=True)
        )
        local_res, stats = run_plan_pandas(pdf, wl, optimal_plan)
        local_res = local_res[["wid", "key", "qid", "cnt"]].sort_values(
            ["qid", "wid", "key"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            spark_res[["wid", "key", "qid", "cnt"]], local_res, check_dtype=False
        )
        assert stats["c_builds"] > 0

    def test_per_window_counts_sums_keys(self, traffic, traffic_spark, optimal_plan):
        wl, _ = traffic
        counts = run_plan(traffic_spark, wl, optimal_plan)
        per_w = per_window_counts(counts).toPandas()
        raw = counts.toPandas()
        expect = (
            raw.groupby(["qid", "wid"])["cnt"].sum().reset_index()
        )
        merged = per_w.merge(expect, on=["qid", "wid"], suffixes=("", "_e"))
        assert len(merged) == len(per_w) == len(expect)
        assert (merged["cnt"] == merged["cnt_e"]).all()


class TestTwoStepEngines:
    def test_flink_like_against_oracle(self, spark):
        wl = purchase_workload(within=WITHIN, slide=SLIDE)
        pdf = event_stream(
            n_events=120,
            types=sorted(wl.event_types),
            n_keys=3,
            duration=300,
            seed=3,
        )
        sdf = stream_to_spark(spark, pdf)
        exploded = explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)
        got = flink_like(sdf, wl).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=exploded)

    def test_spass_like_against_oracle(self, spark):
        wl = purchase_workload(within=WITHIN, slide=SLIDE)
        pdf = event_stream(
            n_events=150,
            types=sorted(wl.event_types),
            n_keys=3,
            duration=300,
            seed=5,
        )
        sdf = stream_to_spark(spark, pdf)
        cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
        plan = sharon_optimizer(wl, cost).plan
        exploded = explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)
        got = spass_like(sdf, wl, plan).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=exploded)

    def test_spass_like_empty_plan_matches_flink(self, spark):
        wl = purchase_workload(within=WITHIN, slide=SLIDE)
        pdf = event_stream(
            n_events=100,
            types=sorted(wl.event_types),
            n_keys=2,
            duration=240,
            seed=8,
        )
        sdf = stream_to_spark(spark, pdf)
        a = (
            spass_like(sdf, wl, [])
            .toPandas()
            .sort_values(["qid", "wid", "key"])
            .reset_index(drop=True)
        )
        b = (
            flink_like(sdf, wl)
            .toPandas()
            .sort_values(["qid", "wid", "key"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
