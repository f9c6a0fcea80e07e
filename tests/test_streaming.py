"""Chunked micro-batch processing must be bit-identical to one-shot
batch evaluation (the 'online' property: only l running counts carried
per (window, key, query) between batches)."""
import numpy as np
import pandas as pd
import pytest

from repro.runtime.kernels import TypeIndex
from repro.runtime.sharon import run_plan_pandas
from repro.runtime.streaming import ChainState, MicroBatchExecutor, time_chunks
from repro.synth_data import event_stream
from repro.workloads import shared_core_workload, traffic_workload


def make_stream(seed=0, n=400, duration=600):
    wl = traffic_workload(within=120, slide=60)
    pdf = event_stream(
        n_events=n, types=sorted(wl.event_types), n_keys=3, duration=duration, seed=seed
    )
    return wl, pdf


def shared_core_stream():
    """Fig 14's length-10 shared-core workload, dense enough per
    (window, key) for nonzero counts."""
    wl = shared_core_workload(
        n_queries=20, pattern_len=10, family_size=5, core_frac=0.8,
        within=120, slide=60,
    )
    pdf = event_stream(
        n_events=6000, types=sorted(wl.event_types), n_keys=2, duration=600, seed=5
    )
    return wl, pdf


STREAMS = {
    "traffic": lambda: make_stream(seed=21),
    "ties": lambda: make_stream(seed=21, duration=50),
    "shared-core": shared_core_stream,
}


def batch_result(wl, pdf):
    res, _ = run_plan_pandas(pdf, wl, None)
    return res.sort_values(["wid", "key", "qid"]).reset_index(drop=True)


def index(*events):
    """(time, type) pairs, sorted by time -> the chunk's TypeIndex."""
    times = np.array([t for t, _ in events], dtype=np.int64)
    types = np.array([ty for _, ty in events], dtype="U8")
    return TypeIndex(times, types)


class TestChainState:
    def test_single_chunk_equals_chain(self):
        st = ChainState(("A", "B"))
        st.update(index((1, "A"), (2, "B"), (3, "A"), (4, "B"), (5, "B")))
        assert st.count == 5.0  # Figure 6's count(A,B)

    def test_two_chunks_equal_one(self):
        events = [(1, "A"), (2, "B"), (3, "A"), (4, "B"), (5, "B")]
        one = ChainState(("A", "B"))
        one.update(index(*events))
        two = ChainState(("A", "B"))
        two.update(index(*events[:2]))
        two.update(index(*events[2:]))
        assert one.count == two.count

    def test_carry_levels_are_prefix_totals(self):
        st = ChainState(("A", "B", "C"))
        st.update(index((1, "A"), (2, "B"), (3, "C"), (4, "C")))
        assert st.carry.tolist() == [1.0, 1.0, 2.0]

    def test_strictly_earlier_sums(self):
        # b2 sees a1; b4 sees a1 and a3.
        st = ChainState(("A", "B"))
        st.update(index((1, "A"), (2, "B"), (3, "A"), (4, "B")))
        assert st.carry.tolist() == [2.0, 3.0]

    def test_ties_inside_one_chunk(self):
        # b2 ties with a2, so it sees only a1 from the earlier chunk;
        # b3 sees a1 and a2.
        st = ChainState(("A", "B"))
        st.update(index((1, "A")))
        st.update(index((2, "A"), (2, "B"), (3, "B")))
        assert st.carry.tolist() == [2.0, 3.0]

    def test_empty_index_is_noop(self):
        st = ChainState(("A", "B"), carry=np.array([1.0, 2.0]))
        st.update(index())
        assert st.carry.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 25])
def test_chunked_equals_batch(stream, n_chunks):
    wl, pdf = STREAMS[stream]()
    ex = MicroBatchExecutor(wl)
    for chunk in time_chunks(pdf, n_chunks):
        ex.process_batch(chunk)
    got = ex.results().sort_values(["wid", "key", "qid"]).reset_index(drop=True)
    want = batch_result(wl, pdf)
    assert len(want) > 0
    pd.testing.assert_frame_equal(
        got[["wid", "key", "qid", "cnt"]],
        want[["wid", "key", "qid", "cnt"]],
        check_dtype=False,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunked_equals_batch_across_seeds(seed):
    wl, pdf = make_stream(seed=seed, n=250)
    ex = MicroBatchExecutor(wl)
    for chunk in time_chunks(pdf, 5):
        ex.process_batch(chunk)
    got = ex.results().sort_values(["wid", "key", "qid"]).reset_index(drop=True)
    want = batch_result(wl, pdf)
    pd.testing.assert_frame_equal(
        got[["wid", "key", "qid", "cnt"]],
        want[["wid", "key", "qid", "cnt"]],
        check_dtype=False,
    )


class TestBatchDiscipline:
    def test_out_of_order_batch_rejected(self):
        wl, pdf = make_stream()
        ex = MicroBatchExecutor(wl)
        chunks = list(time_chunks(pdf, 4))
        ex.process_batch(chunks[1])
        with pytest.raises(ValueError):
            ex.process_batch(chunks[0])

    def test_empty_batch_ok(self):
        wl, pdf = make_stream()
        ex = MicroBatchExecutor(wl)
        ex.process_batch(pdf.iloc[0:0])
        assert ex.results().empty

    def test_ties_never_straddle_chunks(self):
        wl, pdf = make_stream(n=300, duration=50)  # many timestamp ties
        chunks = list(time_chunks(pdf, 10))
        seen_max = -1
        for c in chunks:
            assert int(c["time"].min()) > seen_max
            seen_max = int(c["time"].max())

    def test_state_counters_bounded_by_model(self):
        # Online state: per (window, key, query) exactly len(pattern) counters.
        wl, pdf = make_stream(n=200)
        ex = MicroBatchExecutor(wl)
        for chunk in time_chunks(pdf, 3):
            ex.process_batch(chunk)
        per_part = sum(len(q.pattern) for q in wl)
        n_parts = len(ex.states) / len(wl)
        assert ex.n_state_counters == n_parts * per_part
