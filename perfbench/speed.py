"""Host speed probe: reports times at a fixed reference speed.

The benchmark runs on shared hosts whose per-core speed drifts, by up to
2x within seconds and for minutes at a time, with the load of other
tenants (a pure Python loop alone swings that much). A wall time then
says as much about the host as about the program. So the benchmark runs
a short probe of fixed work, independent of the program and of the
seed, between timed operations, and reports each operation's time at
reference speed:

    time at reference speed = wall time * REF_S / probe time around it

where the probe time around an operation is the mean of the last probe
that ended before it started and the first that started after it ended.
Set-up uses the median of the probes run after its repetitions.
``REF_S`` is what the probe takes at reference speed. Raw wall times stay
in the result file.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import pandas as pd

# The probe's time at reference speed, in seconds: about its median on
# a 4-vCPU Xeon KVM VM (shared host) when the benchmark was written.
REF_S = 0.0025
# Each probe is the fastest of this many runs of the fixed work, so a
# garbage collection or an interrupt inside one run does not count.
REPEATS = 3


class SpeedProbe:
    """Runs the probe and maps a time interval to its speed scale."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._floats = rng.random(40_000)
        self._frame = pd.DataFrame(
            {"k": rng.integers(0, 64, 16_000), "v": rng.random(16_000)}
        )
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        # Wall time of the last call, repeats included.
        self.cost_s = REPEATS * REF_S

    def _work(self) -> float:
        t0 = time.perf_counter()
        # Interpreter work (dicts, ints), vector work and a pandas
        # group-by: the mix the executors and the optimizer run.
        acc: dict[int, int] = {}
        for i in range(8_000):
            acc[i % 61] = acc.get(i % 61, 0) + i
        np.cumsum(np.sort(self._floats))
        self._frame.groupby("k")["v"].sum()
        return time.perf_counter() - t0

    def run(self) -> float:
        t0 = time.perf_counter()
        s = min(self._work() for _ in range(REPEATS))
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(s)
        self.cost_s = t1 - t0
        return s

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the probe time around [t0, t1]: the factor that
        turns a wall time in that interval into one at reference speed."""
        around = []
        i = bisect.bisect_right(self.ends, t0) - 1
        if i >= 0:
            around.append(self.seconds[i])
        j = bisect.bisect_left(self.starts, t1)
        if j < len(self.starts):
            around.append(self.seconds[j])
        if not around:
            return 1.0
        return REF_S / (sum(around) / len(around))

    def run_scale(self) -> float:
        """REF_S over the median of every probe so far."""
        return REF_S / statistics.median(self.seconds) if self.seconds else 1.0
