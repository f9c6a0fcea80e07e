"""float64 counts are exact integers only below 2^53. The executor must
fail loudly, naming the (wid, key, qid) it was evaluating, instead of
returning a silently rounded count — also when the final count is small
but a shared reverse chain subtracted prefix sums from a huge level
total."""
import pandas as pd
import pytest

from repro.core.model import SharingCandidate, Workload
from repro.runtime.sharon import run_plan_pandas

PATTERN = tuple(f"A{j}" for j in range(10))
PER_TYPE = 50  # 50^10 > 2^53


def block_stream(extra=()):
    """PER_TYPE events of each PATTERN type, every A_j before any A_j+1,
    in one (wid, key) partition; ``extra`` (time, type) events follow."""
    rows = [
        (j * PER_TYPE + i, 0, ty) for j, ty in enumerate(PATTERN) for i in range(PER_TYPE)
    ]
    rows += [(t, 0, ty) for t, ty in extra]
    return pd.DataFrame(rows, columns=["time", "key", "type"])


def test_count_beyond_2_53_raises():
    assert PER_TYPE ** len(PATTERN) > 2**53
    wl = Workload.from_patterns([PATTERN], within=1000, slide=1000)
    with pytest.raises(ValueError, match=r"\(wid, key, qid\) = \(0, 0, 0\)"):
        run_plan_pandas(block_stream(), wl, None)


def test_count_below_2_53_passes():
    wl = Workload.from_patterns([PATTERN[:9]], within=1000, slide=1000)
    counts, _ = run_plan_pandas(block_stream(), wl, None)
    assert counts["cnt"].tolist() == [float(PER_TYPE**9)]


def test_huge_shared_suffix_raises_under_small_count():
    # X and Y come after every A event: both counts are 0, but the
    # shared suffix's reverse chain reaches a level total of 50^10.
    wl = Workload.from_patterns(
        [("X",) + PATTERN, ("Y",) + PATTERN], within=1000, slide=1000
    )
    plan = [SharingCandidate(p=PATTERN, qids=frozenset({0, 1}))]
    pdf = block_stream(extra=[(600, "X"), (601, "Y")])
    counts, _ = run_plan_pandas(pdf, wl, None)
    assert counts.empty
    with pytest.raises(ValueError, match=r"\(wid, key, qid\) = \(0, 0, 0\)"):
        run_plan_pandas(pdf, wl, plan)
