"""Micro-batch streaming driver with cross-batch state (DESIGN.md §2).

The paper's executors are *online*: an event updates running aggregates
and is discarded. This module proves that property for the reproduction:
the stream is consumed in time-ordered chunks and, per ``(window, key,
query)``, only A-Seq's ``l`` running prefix counts (Figure 6) are
carried between chunks — chunked results are bit-identical to one-shot
evaluation (tested). Each chunk steps the counts with the kernels'
sparse chain recurrence, over one ``kernels.TypeIndex`` per
``(window, key)`` group that every query shares.

Windows never close here: every state is kept until the end of the
stream and the counts come out only at :meth:`MicroBatchExecutor.results`.
Watermark-driven close, emit and evict is not implemented.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..core.model import Workload
from . import kernels
from .windows import explode_windows_pandas


@dataclass
class ChainState:
    """Per-(wid, key, query) carry: cumulative completion totals per
    pattern-prefix length — exactly the counts of the paper's Figure 6,
    totalled over all START events seen so far."""

    pattern: tuple[str, ...]
    carry: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.carry is None:
            self.carry = np.zeros(len(self.pattern), dtype=np.float64)

    def update(self, index: kernels.TypeIndex) -> None:
        """Fold one chunk's events of a (wid, key) group (all strictly
        later than prior chunks) into the carry. Level j's within-chunk
        values see the pre-chunk carry of level j-1 plus the intra-chunk
        strictly-earlier sums."""
        t_prev = index.times_of(self.pattern[0])
        v_prev = np.ones(len(t_prev), dtype=np.float64)
        new_carry = self.carry.copy()
        new_carry[0] += len(t_prev)
        for j, ty in enumerate(self.pattern[1:], start=1):
            t_cur = index.times_of(ty)
            v_prev = self.carry[j - 1] + kernels._carry_strict(t_prev, v_prev, t_cur)
            t_prev = t_cur
            new_carry[j] += v_prev.sum()
        self.carry = new_carry

    @property
    def count(self) -> float:
        return float(self.carry[-1])


class MicroBatchExecutor:
    """Feeds chunks of a (time-sorted) event stream through per-partition
    chain states; ``results()`` returns (wid, key, qid, cnt) like the
    batch engines."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.within, self.slide = workload.window()
        self.states: dict[tuple[int, int, int], ChainState] = {}
        self._last_time = -1

    def process_batch(self, batch: pd.DataFrame) -> None:
        if batch.empty:
            return
        tmin = int(batch["time"].min())
        if tmin <= self._last_time:
            raise ValueError(
                f"batch starts at {tmin} but {self._last_time} already seen; "
                "batches must be time-ordered and split between timestamps "
                "(ties must stay within one batch for strict-time semantics)"
            )
        self._last_time = int(batch["time"].max())
        exploded = explode_windows_pandas(
            batch, within=self.within, slide=self.slide
        )
        for (wid, key), g in exploded.groupby(["wid", "key"], sort=False):
            index = kernels.TypeIndex(
                g["time"].to_numpy(np.int64), g["type"].to_numpy(dtype="U")
            )
            for q in self.workload:
                k = (int(wid), int(key), q.qid)
                if k not in self.states:
                    self.states[k] = ChainState(q.pattern)
                self.states[k].update(index)

    def results(self) -> pd.DataFrame:
        rows = [
            (wid, key, qid, st.count)
            for (wid, key, qid), st in sorted(self.states.items())
            if st.count > 0
        ]
        return pd.DataFrame(rows, columns=["wid", "key", "qid", "cnt"])

    @property
    def n_state_counters(self) -> int:
        """Online memory footprint: total carried counters (the paper's
        'aggregates maintained')."""
        return sum(len(st.carry) for st in self.states.values())


def time_chunks(events: pd.DataFrame, n_chunks: int):
    """Split a stream into ~equal chunks on timestamp boundaries (ties
    never straddle a boundary, preserving strict-time semantics)."""
    times = np.sort(events["time"].unique())
    bounds = np.array_split(times, max(1, n_chunks))
    for b in bounds:
        if len(b) == 0:
            continue
        yield events[(events["time"] >= b[0]) & (events["time"] <= b[-1])]
