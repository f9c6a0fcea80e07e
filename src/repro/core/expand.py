"""Sharing conflict resolution (paper Section 7.1, Algs 5-6).

A candidate ``(p, Q_p)`` with conflicts is expanded into *options*
``(p, Q_p')`` with ``Q_p' ⊂ Q_p, |Q_p'| > 1``: dropping the queries that
cause a conflict frees the remaining queries to share p alongside the
conflicting candidate. The expanded graph (options as vertices, conflicts
recomputed, weights re-estimated on the smaller query sets) feeds the
reducer and plan finder; the Exhaustive and Sharon optimizers of
Section 8.3 both run on it.
"""
from __future__ import annotations

from itertools import combinations

from .cost import CostModel
from .graph import SharonGraph, Spans
from .model import SharingCandidate, Workload


def conflict_causing_queries(
    workload: Workload,
    v: SharingCandidate,
    u: SharingCandidate,
    spans: Spans | None = None,
) -> frozenset[int]:
    """Queries in Q_v ∩ Q_u where the two patterns overlap (Def 6 "cause").

    ``spans`` is the graph's memo of occurrence spans; without it the
    spans are derived for this call only."""
    return (spans or Spans(workload)).causes(v, u)


def expand_candidate(
    graph: SharonGraph, v: SharingCandidate, max_options: int = 128
) -> list[SharingCandidate]:
    """Algorithm 5: BFS over query-subset options of v.

    For each conflict (v, u) and each non-empty combination C of its
    causing queries (Def 16: the complement is dropped from u's side by
    u's own options), the option (p, Q_p \\ C) is generated if it still
    has > 1 query and is new.

    ``max_options`` bounds the option set: Eq 14 makes the worst case
    exponential in the number of conflict-causing queries (the paper
    notes this), so generation stops once the bound is hit. Options are
    extra sharing *opportunities* — truncating them can only lower the
    achievable score, never produce an invalid plan — and BFS order
    keeps the largest query sets (highest-benefit options) first.
    Neighbours are visited in sorted-key order, so the options kept
    under the bound do not depend on set iteration (string hashing).

    An option's queries are a subset of Q_v, so the queries causing its
    conflict with u are those causing v's conflict with u, restricted
    to the option: each neighbour's causes are derived once, up front.
    """
    causes = list(
        dict.fromkeys(
            conflict_causing_queries(graph.workload, v, u, graph.spans)
            for u in sorted(graph.neighbors(v), key=SharingCandidate.key)
        )
    )
    options: dict[frozenset[int], SharingCandidate] = {v.qids: v}
    current = [v]
    while current and len(options) < max_options:
        nxt: list[SharingCandidate] = []
        for cand in current:
            for cause in causes:
                qc = cause & cand.qids
                for r in range(1, len(qc) + 1):
                    for combo in combinations(sorted(qc), r):
                        qp = cand.qids - set(combo)
                        if len(qp) > 1 and qp not in options:
                            child = SharingCandidate(v.p, frozenset(qp))
                            options[qp] = child
                            nxt.append(child)
                            if len(options) >= max_options:
                                return list(options.values())
        current = nxt
    return list(options.values())


def expand_graph(
    graph: SharonGraph, cost: CostModel, max_options: int = 128
) -> SharonGraph:
    """Algorithm 6: expand every candidate, rebuild vertices and edges.

    Option weights are their own BValues under ``cost``; options that are
    not beneficial are dropped (Alg 1's Line 3 applies to the expanded
    graph too). The original candidates keep their recorded weights so an
    injected-weight graph (tests) stays consistent.
    """
    chosen: dict[tuple, tuple[SharingCandidate, float]] = {}
    for v in graph.vertices:
        for opt in expand_candidate(graph, v, max_options):
            k = opt.key()
            if k in chosen:
                continue
            w = graph.weight(v) if k == v.key() else cost.bvalue(opt)
            if w > 0:
                chosen[k] = (opt, w)
    expanded = SharonGraph(graph.workload, spans=graph.spans)
    expanded.add_vertices(chosen.values())
    return expanded
