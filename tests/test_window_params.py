"""Every engine explodes the stream into windows once per workload, so a
workload whose queries disagree on WITHIN or SLIDE (breaking the paper's
assumption 2) must be rejected, not evaluated with the first query's
windows."""
import pandas as pd
import pytest

from repro.core.model import Query, Workload
from repro.runtime import aseq_sql, sharon, streaming, twostep

EVENTS = pd.DataFrame({"time": [1, 2], "type": ["A", "B"], "key": [0, 0]})

ENTRY_POINTS = {
    "sharon.run_plan": lambda wl: sharon.run_plan(None, wl, None),
    "sharon.run_plan_pandas": lambda wl: sharon.run_plan_pandas(EVENTS, wl, None),
    "streaming.MicroBatchExecutor": streaming.MicroBatchExecutor,
    "aseq_sql.run_aseq_sql": lambda wl: aseq_sql.run_aseq_sql(None, wl),
    "twostep.flink_like": lambda wl: twostep.flink_like(None, wl),
    "twostep.spass_like": lambda wl: twostep.spass_like(None, wl, []),
}

MIXED = {
    "slide": [(600, 300), (600, 60)],
    "within": [(600, 300), (1200, 300)],
}


@pytest.mark.parametrize("mixed", MIXED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_mixed_window_parameters_rejected(entry, mixed):
    wl = Workload(
        [
            Query(qid=i, pattern=("A", "B"), within=w, slide=s)
            for i, (w, s) in enumerate(MIXED[mixed])
        ]
    )
    with pytest.raises(ValueError, match="WITHIN/SLIDE"):
        ENTRY_POINTS[entry](wl)


def test_shared_window_parameters_returned():
    wl = Workload.from_patterns([("A", "B"), ("B", "C")], within=900, slide=300)
    assert wl.window() == (900, 300)
