"""Sharing conflicts and the Sharon graph (paper Section 4, Alg 1).

Vertices are sharing candidates weighted by benefit; undirected edges
are sharing conflicts (Definition 6): two candidates conflict when their
patterns occupy overlapping position ranges in some query both of them
would be shared by. Under the paper's assumption that an event type
occurs at most once per pattern, positional overlap coincides with the
paper's suffix-equals-prefix formulation, and it extends naturally to
repeated types (Section 7.3).

The graph is an adjacency-list structure; ``weights`` may be injected
explicitly (used by tests that pin the paper's Figure 4 weights) or
computed from a :class:`~repro.core.cost.CostModel`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel
from .model import Pattern, SharingCandidate, Workload


def occurrence_ranges(query_pattern: Pattern, p: Pattern) -> list[tuple[int, int]]:
    """All [start, end) index ranges where ``p`` occurs in ``query_pattern``."""
    n, l = len(query_pattern), len(p)
    return [
        (i, i + l) for i in range(n - l + 1) if query_pattern[i : i + l] == p
    ]


def conflicts_in_query(query_pattern: Pattern, pa: Pattern, pb: Pattern) -> bool:
    """True if pa and pb overlap positionally somewhere in this query."""
    ra = occurrence_ranges(query_pattern, pa)
    rb = occurrence_ranges(query_pattern, pb)
    return any(sa < eb and sb < ea for (sa, ea) in ra for (sb, eb) in rb)


def in_conflict(
    workload: Workload, a: SharingCandidate, b: SharingCandidate
) -> bool:
    """Definition 6: a query in Q_A ∩ Q_B where the patterns overlap.

    Two candidates for the *same* pattern (options from Section 7.1)
    conflict exactly when they share a query — the pattern trivially
    overlaps itself.
    """
    common = a.qids & b.qids
    if not common:
        return False
    if a.p == b.p:
        return True
    return any(
        conflicts_in_query(workload[qid].pattern, a.p, b.p) for qid in common
    )


def _spans_overlap(ra, rb) -> bool:
    return any(sa < eb and sb < ea for (sa, ea) in ra for (sb, eb) in rb)


class Spans:
    """Memoized occurrence spans of patterns in one workload's queries.

    Each (pattern, qid) span list is derived once; the graph's conflict
    groups and the conflict-causing queries of Section 7.1 both read it.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._memo: dict[tuple[Pattern, int], tuple[tuple[int, int], ...]] = {}

    def __call__(self, p: Pattern, qid: int) -> tuple[tuple[int, int], ...]:
        key = (p, qid)
        spans = self._memo.get(key)
        if spans is None:
            spans = tuple(occurrence_ranges(self.workload[qid].pattern, p))
            self._memo[key] = spans
        return spans

    def causes(self, a: SharingCandidate, b: SharingCandidate) -> frozenset[int]:
        """Queries in Q_a ∩ Q_b where the two patterns overlap (a pattern
        overlaps itself)."""
        return frozenset(
            q
            for q in a.qids & b.qids
            if a.p == b.p or _spans_overlap(self(a.p, q), self(b.p, q))
        )


@dataclass
class SharonGraph:
    """Adjacency-list Sharon graph (Definition 10).

    Edges are derived per query rather than per vertex pair: for every
    query the graph keeps its vertices grouped by pattern, so a new
    vertex's neighbours are the union, over its queries, of the groups
    whose pattern overlaps its own in that query. This is exactly Def 6
    (``in_conflict``, kept as the reference) at a cost proportional to
    the edges found instead of the vertices present.
    """

    workload: Workload
    vertices: list[SharingCandidate] = field(default_factory=list)
    weights: dict[tuple, float] = field(default_factory=dict)
    adj: dict[tuple, set[tuple]] = field(default_factory=dict)
    spans: Spans | None = None
    _by_key: dict[tuple, SharingCandidate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # qid -> pattern -> (the pattern's spans in qid, keys of the vertices
    # with that pattern sharing qid)
    _groups: dict[int, dict[Pattern, tuple[tuple, set[tuple]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.spans is None:
            self.spans = Spans(self.workload)

    def add_vertex(self, cand: SharingCandidate, weight: float) -> None:
        """Alg 1, Lines 4-8: add a vertex and its edges to existing ones."""
        self.add_vertices([(cand, weight)])

    def add_vertices(self, items) -> None:
        """Add (candidate, weight) pairs and every conflict edge they are
        part of. A vertex's neighbours are the union of its conflict
        groups, so edges among the new vertices come out of both ends'
        unions; only edges to vertices already present are written twice.
        """
        new: dict[tuple, SharingCandidate] = {}
        for cand, weight in items:
            k = cand.key()
            if k in self._by_key:
                raise ValueError(f"duplicate vertex {k}")
            new[k] = cand
            self._insert(cand)
            self.weights[k] = weight
        for k, cand in new.items():
            nbrs = self._conflicts(cand)
            nbrs.discard(k)
            self.adj[k] = nbrs
            for u in nbrs.difference(new):
                self.adj[u].add(k)

    def _conflicts(self, cand: SharingCandidate) -> set[tuple]:
        """Keys of the vertices in conflict with ``cand`` (Def 6), its own
        included: over its queries q, the groups whose pattern overlaps
        its own in q."""
        nbrs: set[tuple] = set()
        for q in cand.qids:
            mine = self.spans(cand.p, q)
            for p, (theirs, keys) in self._groups[q].items():
                if keys <= nbrs:
                    continue  # already neighbours through another query
                if p == cand.p or _spans_overlap(mine, theirs):
                    nbrs |= keys
        return nbrs

    def _insert(self, cand: SharingCandidate) -> None:
        """Add ``cand`` to the vertex list, key map and query groups."""
        k = cand.key()
        self.vertices.append(cand)
        self._by_key[k] = cand
        for q in cand.qids:
            groups = self._groups.setdefault(q, {})
            if cand.p not in groups:
                groups[cand.p] = (self.spans(cand.p, q), set())
            groups[cand.p][1].add(k)

    def remove_vertex(self, cand: SharingCandidate) -> None:
        k = cand.key()
        for u in self.adj.pop(k):
            self.adj[u].discard(k)
        self.weights.pop(k)
        del self._by_key[k]
        for q in cand.qids:
            self._groups[q][cand.p][1].discard(k)
        self.vertices = [v for v in self.vertices if v.key() != k]

    def weight(self, cand: SharingCandidate) -> float:
        return self.weights[cand.key()]

    def degree(self, cand: SharingCandidate) -> int:
        return len(self.adj[cand.key()])

    def vertex(self, key: tuple) -> SharingCandidate:
        return self._by_key[key]

    def neighbors(self, cand: SharingCandidate) -> list[SharingCandidate]:
        return [self._by_key[k] for k in self.adj[cand.key()]]

    def has_edge(self, a: SharingCandidate, b: SharingCandidate) -> bool:
        return b.key() in self.adj[a.key()]

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def total_weight(self) -> float:
        return sum(self.weights.values())

    def copy(self) -> "SharonGraph":
        g = SharonGraph(self.workload, spans=self.spans)
        for v in self.vertices:
            g._insert(v)
        g.weights = dict(self.weights)
        g.adj = {k: set(s) for k, s in self.adj.items()}
        return g

    def find_vertex(self, p: Pattern) -> SharingCandidate:
        """Vertex whose pattern is ``p`` (unique pre-expansion); for tests."""
        matches = [v for v in self.vertices if v.p == p]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} vertices with pattern {p}")
        return matches[0]


def build_graph(
    workload: Workload,
    sharables: dict[Pattern, frozenset[int]],
    cost: CostModel | None = None,
    weights: dict[Pattern, float] | None = None,
) -> SharonGraph:
    """Algorithm 1: Sharon graph construction.

    ``weights`` overrides the cost model per pattern (tests pin Figure 4's
    weights this way); otherwise BValue from ``cost`` is used and
    non-beneficial candidates are skipped (Line 3).
    """
    if cost is None and weights is None:
        raise ValueError("need a cost model or explicit weights")
    chosen = []
    # Sorted iteration keeps construction deterministic across runs.
    for p in sorted(sharables):
        qids = sharables[p]
        if len(qids) < 2:
            continue
        cand = SharingCandidate(p, qids)
        w = weights.get(p) if weights is not None else cost.bvalue(cand)
        if w is None or w <= 0:
            continue
        chosen.append((cand, float(w)))
    g = SharonGraph(workload)
    g.add_vertices(chosen)
    return g
