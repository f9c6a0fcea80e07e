"""Sharon graph reduction (paper Section 5, Alg 2).

Prunes *conflict-ridden* candidates — whose best achievable plan score is
below GWMIN's guaranteed weight (Def 13) — and extracts *conflict-free*
candidates (Def 14) straight into the plan. DESIGN.md Section 6 explains
one correction to the printed algorithm: ``Score_max`` must count the
weight of already-extracted conflict-free candidates, otherwise the
fixed GWMIN bound (computed on the full graph, conflict-free vertices
included) would wrongly prune the whole remainder. With that reading the
paper's Examples 7 and 9 are reproduced exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import SharonGraph
from .model import SharingCandidate


def score_max(
    graph: SharonGraph,
    v: SharingCandidate,
    extra: float = 0.0,
    total: float | None = None,
) -> float:
    """Def 12: best score of a plan containing v = weights of all
    candidates not in conflict with v (v itself included) + ``extra``
    for candidates already guaranteed in the plan. ``total`` is
    ``sum(graph.weights.values())`` when the caller already has it."""
    if total is None:
        total = sum(graph.weights.values())
    # Total-minus-neighbors form: O(degree) instead of O(|V|).
    return extra + total - sum(map(graph.weights.__getitem__, graph.adj[v.key()]))


@dataclass
class ReductionResult:
    graph: SharonGraph
    conflict_free: list[SharingCandidate] = field(default_factory=list)
    pruned: list[SharingCandidate] = field(default_factory=list)


def reduce_graph(graph: SharonGraph, min_weight: float) -> ReductionResult:
    """Algorithm 2. ``min_weight`` is GWMIN's guaranteed weight (Eq 10)
    on the input graph. Mutates a copy; returns (reduced graph, F, pruned)."""
    g = graph.copy()
    free: list[SharingCandidate] = []
    pruned: list[SharingCandidate] = []
    free_weight = 0.0
    # sum(g.weights.values()), summed afresh (same order, same bits)
    # only after a removal; None while stale.
    total = None
    changed = True
    while changed:
        changed = False
        for v in list(g.vertices):
            if g.degree(v) == 0:
                free.append(v)
                free_weight += g.weight(v)
            else:
                if total is None:
                    total = sum(g.weights.values())
                if score_max(g, v, free_weight, total) >= min_weight:
                    continue
                pruned.append(v)
            g.remove_vertex(v)
            total = None
            changed = True
    return ReductionResult(graph=g, conflict_free=free, pruned=pruned)
