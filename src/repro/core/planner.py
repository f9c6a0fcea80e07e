"""Sharing plan finder (paper Section 6, Algs 3-4) plus the exhaustive
baseline used by the Exhaustive Optimizer in Section 8.3.

Plans are tuples of vertex keys sorted lexicographically (the paper sorts
candidates "alphabetically by their patterns within a plan"), so the
Apriori-style join of Algorithm 3 — two parents agreeing on the first
s-1 candidates whose last candidates are non-adjacent — generates each
child exactly once. ``PlanSearchStats`` records the per-level plan counts
that back the optimizer latency/memory experiment (Fig 15) and the
search-space percentages of Examples 9-10.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby

from .graph import SharonGraph
from .model import SharingCandidate

PlanKey = tuple  # sorted tuple of vertex keys


@dataclass
class PlanSearchStats:
    """Instrumentation: number of plans generated per level and the peak
    number of plans held at once (the finder's memory driver)."""

    plans_per_level: list[int] = field(default_factory=list)
    peak_level_plans: int = 0

    @property
    def total_plans(self) -> int:
        return sum(self.plans_per_level)


def _score(graph: SharonGraph, plan: PlanKey) -> float:
    return sum(graph.weights[k] for k in plan)


def _next_level(adj, parents: list[tuple]) -> list[tuple]:
    """Algorithm 3 over any sortable vertex ids with adjacency ``adj``.

    Parents are sorted, so those sharing their first s-1 candidates are
    contiguous; each such run is joined pairwise, in order."""
    children: list[tuple] = []
    for _, run in groupby(parents, key=lambda p: p[:-1]):
        run = list(run)
        lasts = [p[-1] for p in run]
        for i, p in enumerate(run):
            blocked = adj[lasts[i]]
            children.extend([p + (b,) for b in lasts[i + 1 :] if b not in blocked])
    return children


def get_next_level(
    graph: SharonGraph, parents: list[PlanKey]
) -> list[PlanKey]:
    """Algorithm 3: level s -> level s+1, constructing only valid plans.

    Base case (s=1): all non-adjacent vertex pairs. Inductive case: join
    parents sharing the first s-1 candidates; the child is valid iff the
    two differing last candidates are non-adjacent (Lemma 6).
    """
    return _next_level(graph.adj, parents)


def find_optimal_plan(
    graph: SharonGraph,
    conflict_free: list[SharingCandidate] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Algorithm 4: BFS over the valid search space, pruning invalid
    branches at their roots. Returns (optimal plan with the conflict-free
    candidates F appended, best score over the *reduced* space — callers
    holding the original graph add F's weights to get the full score)."""
    plan, best = _search(graph, sorted(graph.adj), stats)
    return plan + list(conflict_free or []), best


def _search(
    graph: SharonGraph, keys: list[tuple], stats: PlanSearchStats | None
) -> tuple[list[SharingCandidate], float]:
    """Algorithm 4 over the vertices ``keys`` (sorted, closed under
    adjacency). The search runs on each vertex's rank in ``keys``: rank
    order is key order, so levels, traversal and tie-breaks are those of
    the key tuples, at the cost of comparing integers."""
    rank = {k: i for i, k in enumerate(keys)}
    weights = [graph.weights[k] for k in keys]
    adj = [{rank[u] for u in graph.adj[k]} for k in keys]
    opt: tuple[int, ...] = ()
    best = 0.0
    level: list[tuple[int, ...]] = [(i,) for i in range(len(keys))]
    while level:
        if stats is not None:
            stats.plans_per_level.append(len(level))
            stats.peak_level_plans = max(stats.peak_level_plans, len(level))
        for plan in level:
            sc = sum(map(weights.__getitem__, plan))
            if sc > best:
                opt, best = plan, sc
        level = sorted(_next_level(adj, level))
    return [graph.vertex(keys[i]) for i in opt], best


def _components(graph: SharonGraph) -> list[list[tuple]]:
    """Keys of each connected component (by conflict edges), components
    ordered by their first vertex."""
    seen: set[tuple] = set()
    comps: list[list[tuple]] = []
    for v in graph.vertices:
        if v.key() in seen:
            continue
        stack, comp = [v.key()], []
        seen.add(v.key())
        while stack:
            k = stack.pop()
            comp.append(k)
            for u in graph.adj[k]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def find_optimal_plan_decomposed(
    graph: SharonGraph,
    conflict_free: list[SharingCandidate] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Optimality-preserving engineering extension of Algorithm 4: run
    the finder per connected component and union the results. Candidates
    in different components never conflict, so the union of per-component
    optima is the global optimum while the traversed space shrinks from
    the *product* of component valid-space sizes to their *sum*. The
    paper's finder (no decomposition) is :func:`find_optimal_plan`; the
    large plan-quality sweeps (Fig 16) use this variant."""
    plan: list[SharingCandidate] = list(conflict_free or [])
    score = 0.0
    for comp in _components(graph):
        sub_plan, sub_score = _search(graph, sorted(comp), stats)
        plan.extend(sub_plan)
        score += sub_score
    return plan, score


def all_valid_plans(graph: SharonGraph) -> list[PlanKey]:
    """Every non-empty valid plan, via the level-wise generator. Used by
    tests to pin Example 10's valid-space size (10 plans)."""
    plans: list[PlanKey] = []
    level: list[PlanKey] = sorted((v.key(),) for v in graph.vertices)
    while level:
        plans.extend(level)
        level = sorted(get_next_level(graph, level))
    return plans


def exhaustive_optimal_plan(
    graph: SharonGraph, stats: PlanSearchStats | None = None
) -> tuple[list[SharingCandidate], float]:
    """The naive finder: enumerate all 2^|V| candidate subsets, keep the
    best valid one. Exponential with no pruning — the Exhaustive
    Optimizer baseline of Section 8.3."""
    keys = sorted(graph.adj)
    opt: tuple = ()
    best = 0.0
    n_seen = 0
    for s in range(1, len(keys) + 1):
        level_count = 0
        for combo in combinations(keys, s):
            n_seen += 1
            level_count += 1
            if any(
                b in graph.adj[a] for a, b in combinations(combo, 2)
            ):
                continue
            sc = _score(graph, combo)
            if sc > best:
                opt, best = combo, sc
        if stats is not None:
            stats.plans_per_level.append(level_count)
            stats.peak_level_plans = max(stats.peak_level_plans, level_count)
    return [graph.vertex(k) for k in opt], best
