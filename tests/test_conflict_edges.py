"""The Sharon graph derives its conflict edges per query (occurrence
spans grouped by pattern); Definition 6's pairwise ``in_conflict`` is the
reference it must reproduce exactly, on generated workloads that include
repeated event types (Section 7.3) and option sets cut by the
``max_options`` bound (Section 7.1)."""
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.expand import (
    conflict_causing_queries,
    expand_candidate,
    expand_graph,
)
from repro.core.graph import build_graph, conflicts_in_query, in_conflict
from repro.core.model import Workload
from repro.core.optimizer import exhaustive_optimizer, sharon_optimizer

SRC = Path(__file__).resolve().parent.parent / "src"

# Few types and long patterns: many shared sub-patterns, repeated types.
patterns = st.lists(st.sampled_from("ABCD"), min_size=2, max_size=6).map(tuple)
workloads = st.lists(patterns, min_size=2, max_size=7).map(Workload.from_patterns)
rates = st.sampled_from([0.5, 2.0, 10.0])
caps = st.sampled_from([2, 3, 8, 128])


def edge_set(g):
    edges = {frozenset((k, u)) for k, nbrs in g.adj.items() for u in nbrs}
    assert all(len(e) == 2 for e in edges), "self-loop"
    for k, nbrs in g.adj.items():
        assert all(k in g.adj[u] for u in nbrs), "asymmetric adjacency"
    return edges


def reference_edge_set(g):
    return {
        frozenset((a.key(), b.key()))
        for a, b in itertools.combinations(g.vertices, 2)
        if in_conflict(g.workload, a, b)
    }


def graphs(wl, rate, cap):
    cost = CostModel(wl, uniform_rates(wl.event_types, rate))
    # Unit weights keep every sharable pattern, beneficial or not.
    unit = build_graph(
        wl, sharable_patterns(wl), weights=dict.fromkeys(sharable_patterns(wl), 1.0)
    )
    g = build_graph(wl, sharable_patterns(wl), cost=cost)
    return [unit, expand_graph(unit, cost, cap), g, expand_graph(g, cost, cap)]


@settings(max_examples=150, deadline=None)
@given(workloads, rates, caps)
def test_edges_equal_pairwise_definition6(wl, rate, cap):
    for g in graphs(wl, rate, cap):
        assert set(g.adj) == {v.key() for v in g.vertices}
        assert edge_set(g) == reference_edge_set(g)


@settings(max_examples=100, deadline=None)
@given(workloads, rates)
def test_conflict_causes_match_definition6(wl, rate):
    g = graphs(wl, rate, 128)[0]
    for v, u in itertools.permutations(g.vertices, 2):
        expected = {
            q
            for q in v.qids & u.qids
            if v.p == u.p or conflicts_in_query(wl[q].pattern, v.p, u.p)
        }
        assert conflict_causing_queries(wl, v, u) == expected
        assert conflict_causing_queries(wl, v, u, g.spans) == expected


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(
    st.lists(patterns, min_size=2, max_size=5).map(Workload.from_patterns), rates
)
def test_sharon_score_equals_exhaustive(wl, rate):
    cost = CostModel(wl, uniform_rates(wl.event_types, rate))
    try:
        eo = exhaustive_optimizer(wl, cost, max_vertices=12)
    except ValueError:
        assume(False)
    so = sharon_optimizer(wl, cost)
    assert so.score == pytest.approx(eo.score, rel=1e-12, abs=1e-12)


def capped_workload():
    """14 contiguous sub-patterns of one type sequence: so many
    conflicts that option sets reach the ``max_options`` bound."""
    import random

    rng = random.Random(1)
    pats = []
    for _ in range(14):
        n = rng.randint(3, 5)
        start = rng.randint(0, 9 - n)
        pats.append(tuple("ABCDEFGHI"[start : start + n]))
    return Workload.from_patterns(pats)


def test_capped_workload_hits_option_bound():
    wl = capped_workload()
    cost = CostModel(wl, uniform_rates(wl.event_types, 1.0))
    g = build_graph(wl, sharable_patterns(wl), cost=cost)
    assert max(len(expand_candidate(g, v, 16)) for v in g.vertices) == 16


_PLAN_SCRIPT = """
import json
from tests.test_conflict_edges import capped_workload
from repro.core.cost import CostModel, uniform_rates
from repro.core.optimizer import sharon_optimizer
wl = capped_workload()
res = sharon_optimizer(
    wl, CostModel(wl, uniform_rates(wl.event_types, 1.0)),
    decompose=True, max_options=16,
)
print(json.dumps({"plan": sorted(v.key() for v in res.plan), "score": res.score}))
"""


def test_capped_plan_independent_of_hash_seed():
    root = SRC.parent
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(root)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", _PLAN_SCRIPT],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]
