"""Peak-memory model for the executors (paper Section 8.1 "Metrics").

The paper measures "the maximal memory for storing aggregates, events
and event sequences". Process RSS of a JVM is not comparable to a Spark
driver, so the reproduction counts exactly those objects, from the
paper's own data structures:

- Non-Shared (A-Seq): each query keeps one count per pattern prefix per
  not-expired START event -> ``starts(E1) * length(P)`` aggregates per
  query per window (Section 3.2).
- Shared (Sharon): each shared pattern keeps its per-START-event counts
  once (``starts(Em) * length(p)``); each query adds its prefix/suffix
  chains plus one combination count per START event pair boundary
  (Section 3.3).

``kernel state bytes`` reported by the executors (C-matrix + completion
vectors actually allocated) are returned alongside for transparency.
"""
from __future__ import annotations

from ..core.cost import CostModel
from ..core.model import SharingCandidate, Workload
from .kernels import compile_segments

_AGG_BYTES = 8  # one float64 count


def aseq_aggregates(workload: Workload, cost: CostModel) -> float:
    """Modeled aggregate count for the Non-Shared method, per window."""
    total = 0.0
    for q in workload:
        total += cost.rate(q.pattern[0]) * len(q.pattern)
    return total


def sharon_aggregates(
    workload: Workload, cost: CostModel, plan: list[SharingCandidate]
) -> float:
    """Modeled aggregate count for the Sharon executor under a plan."""
    shared_of: dict[int, list] = {q.qid: [] for q in workload}
    total = 0.0
    for cand in plan:
        total += cost.rate(cand.p[0]) * len(cand.p)  # shared chain, once
        for qid in cand.qids:
            shared_of[qid].append(cand.p)
    for q in workload:
        if not shared_of[q.qid]:
            total += cost.rate(q.pattern[0]) * len(q.pattern)
            continue
        for seg in compile_segments(q.pattern, shared_of[q.qid]):
            if seg.shared:
                total += cost.rate(seg.pattern[0])  # combination counts
            else:
                total += cost.rate(seg.pattern[0]) * len(seg.pattern)
    return total


def aggregates_to_bytes(n_aggregates: float) -> float:
    return n_aggregates * _AGG_BYTES
