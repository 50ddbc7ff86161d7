import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from profitmax.graph import NodeEconomics, build_graph, degree, exclude_nodes, seed_cost
from profitmax.profit import (
    EstimatorConfig,
    SnapshotCoverage,
    SnapshotReachCounts,
    marginal_profit_gain,
)
from profitmax.rng import RandomSource
from profitmax.selection import (
    SELECTORS,
    SelectionOutcome,
    TraceEntry,
    _snapshots,
    baseline_clustering_coefficient,
    baseline_high_degree,
    baseline_random,
    baseline_single_discount,
    double_greedy,
    replay_single_greedy,
    select,
    single_greedy,
)

CFG = EstimatorConfig(replications=60)


def isolated_nodes(costs, benefits):
    """Graph of len(costs) isolated nodes (one dummy arc removed by exclusion)."""
    n = len(costs)
    g = build_graph([(n, n + 1, 1.0)], directed=True)
    view = exclude_nodes(g, {n, n + 1})
    econ = NodeEconomics(tuple(costs) + (1, 1), tuple(benefits) + (1, 1))
    return view, econ


def test_single_greedy_no_budget():
    g, econ = isolated_nodes([3, 5], [10, 10])
    out = single_greedy(g, econ, 0, CFG, RandomSource(0))
    assert out.seeds == ()
    assert out.spent == 0 and out.remaining_budget == 0
    assert {e.decision for e in out.trace} == {"unaffordable"}


def test_single_greedy_prefers_best_ratio_within_budget():
    # exact ratios on isolated nodes: 7/3 for the cheap node vs 5/5
    g, econ = isolated_nodes([3, 5], [10, 10])
    out = single_greedy(g, econ, 4, CFG, RandomSource(0))
    assert out.seeds == (0,)
    assert out.spent == 3 and out.remaining_budget == 1


def test_single_greedy_stops_on_nonpositive_gain():
    g, econ = isolated_nodes([50, 60], [5, 5])
    out = single_greedy(g, econ, 1000, CFG, RandomSource(0))
    assert out.seeds == ()
    assert any(e.decision == "rejected_gain" for e in out.trace)


def test_single_greedy_trace_replays():
    g, econ = isolated_nodes([3, 5, 4, 2], [10, 12, 4, 9])
    source = RandomSource(42)
    out = single_greedy(g, econ, 9, CFG, source)
    assert replay_single_greedy(g, econ, CFG, source, out)


def test_single_greedy_replay_rejects_altered_outcomes():
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)], directed=True)
    econ = NodeEconomics((4, 5, 6, 7), (12, 3, 14, 5))
    source = RandomSource(3)
    out = single_greedy(g, econ, 12, CFG, source)
    assert out.seeds and replay_single_greedy(g, econ, CFG, source, out)
    trace = list(out.trace)
    k = next(i for i, e in enumerate(trace) if e.decision == "evaluated")
    trace[k] = replace(trace[k], ratio=trace[k].ratio + 1e-9)
    assert not replay_single_greedy(g, econ, CFG, source, replace(out, trace=tuple(trace)))
    trace = list(out.trace)
    k = next(i for i, e in enumerate(trace) if e.decision == "accepted")
    other = next(u for u in g.nodes if u != trace[k].node)
    trace[k] = replace(trace[k], node=other)
    assert not replay_single_greedy(g, econ, CFG, source, replace(out, trace=tuple(trace)))


def test_single_greedy_ties_go_to_lowest_id():
    g, econ = isolated_nodes([2, 2, 2, 2], [5, 5, 5, 5])
    out = single_greedy(g, econ, 4, CFG, RandomSource(0))
    assert out.seeds == (0, 1)
    assert [e.node for e in out.trace if e.decision == "accepted"] == [0, 1]


def _small_instance(rnd):
    """Tiny graph, economics and budget, often with tied ratios; sometimes a view."""
    n = rnd.randint(2, 7)
    uniform = rnd.choice([None, 0.1, 0.2, 0.5])
    edges = [(u, v, uniform or rnd.choice([0.3, 0.5, 1.0]))
             for u in range(n) for v in range(n) if u != v and rnd.random() < 0.35]
    if not edges:
        edges = [(0, n - 1, uniform or 1.0)]
    g = build_graph(edges, directed=True)
    size = g.base_node_count
    econ = NodeEconomics(tuple(rnd.randint(1, 3) for _ in range(size)),
                         tuple(rnd.randint(1, 4) for _ in range(size)))
    if rnd.random() < 0.5:
        g = exclude_nodes(g, rnd.sample(range(size), rnd.randint(1, size - 1)))
    return g, econ, rnd.randint(0, 12)


def _eager_single_greedy(g, econ, budget, cfg, source):
    # reference: re-score every affordable candidate each round on the same sample
    cost = econ.cost
    cover = SnapshotCoverage(_snapshots(g, cfg, source), econ.benefit)
    pool, accepted, remaining = g.nodes, [], budget
    while True:
        pool = [u for u in pool if cost[u] <= remaining]
        if not pool:
            break
        scored = [((cover.gain(u) / cfg.replications - cost[u]) / cost[u], u) for u in pool]
        ratio, best = max(scored, key=lambda t: (t[0], -t[1]))
        if ratio <= 0.0:
            break
        cover.add(best)
        accepted.append((best, ratio))
        remaining -= cost[best]
        pool.remove(best)
    return accepted


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6))
def test_lazy_single_greedy_matches_eager_loop(seed, replications):
    g, econ, budget = _small_instance(random.Random(seed))
    cfg = EstimatorConfig(replications=replications)
    source = RandomSource(seed)
    out = single_greedy(g, econ, budget, cfg, source)
    accepted = [(e.node, e.ratio) for e in out.trace if e.decision == "accepted"]
    assert accepted == _eager_single_greedy(g, econ, budget, cfg, source)
    assert out.seeds == tuple(sorted(u for u, _ in accepted))


def _coverage(sample, value, members):
    cover = SnapshotCoverage(sample, value)
    for u in members:
        cover.add(u)
    return cover.total


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6))
def test_shrink_loss_equals_coverage_difference(seed, replications):
    rnd = random.Random(seed)
    g, econ, _ = _small_instance(rnd)
    sample = _snapshots(g, EstimatorConfig(replications=replications), RandomSource(seed))
    members = set(g.nodes)
    counts = SnapshotReachCounts(sample, econ.benefit, sorted(members))
    for u in rnd.sample(sorted(members), rnd.randint(0, len(members))):
        counts.remove(u)
        members.discard(u)
    full = _coverage(sample, econ.benefit, members)
    for u in members:
        assert counts.loss(u) == full - _coverage(sample, econ.benefit, members - {u})


def _two_walk_double_greedy(g, econ, budget, cfg, source):
    # reference: the loop that walked a node's reach for its grow-side gain and
    # again to add or drop it
    cost = econ.cost
    nodes = g.nodes
    sample = _snapshots(g, cfg, source)
    grow = SnapshotCoverage(sample, econ.benefit)
    shrink = SnapshotReachCounts(sample, econ.benefit, nodes)
    selected, remaining, trace = [], budget, []
    for idx, u in enumerate(nodes):
        c = cost[u]
        add_ratio = (grow.gain(u) / cfg.replications - c) / c
        remove_ratio = (shrink.loss(u) / cfg.replications - c) / c
        if add_ratio >= remove_ratio and c <= remaining:
            grow.add(u)
            selected.append(u)
            remaining -= c
            decision = "added"
        else:
            shrink.remove(u)
            decision = "dropped_budget" if add_ratio >= remove_ratio else "dropped_ratio"
        trace.append(TraceEntry(idx, u, decision, add_ratio, remove_ratio))
    spent = seed_cost(econ, selected)
    return SelectionOutcome(tuple(sorted(selected)), spent, budget - spent, tuple(trace))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6))
def test_double_greedy_matches_two_walk_loop(seed, replications):
    g, econ, budget = _small_instance(random.Random(seed))
    cfg = EstimatorConfig(replications=replications)
    source = RandomSource(seed)
    assert double_greedy(g, econ, budget, cfg, source) == \
        _two_walk_double_greedy(g, econ, budget, cfg, source)


def test_double_greedy_empty_universe():
    g = exclude_nodes(build_graph([(0, 1, 1.0)], directed=True), {0, 1})
    econ = NodeEconomics((1, 1), (1, 1))
    out = double_greedy(g, econ, 10, CFG, RandomSource(0))
    assert out.seeds == ()


def test_double_greedy_single_profitable_node():
    g, econ = isolated_nodes([3], [10])
    out = double_greedy(g, econ, 5, CFG, RandomSource(0))
    assert out.seeds == (0,)
    entry = out.trace[0]
    assert entry.decision == "added"
    assert entry.ratio == pytest.approx(7 / 3)
    assert entry.remove_ratio == pytest.approx(7 / 3)


def test_double_greedy_budget_gate():
    g, econ = isolated_nodes([3], [10])
    out = double_greedy(g, econ, 2, CFG, RandomSource(0))
    assert out.seeds == ()
    assert out.trace[0].decision == "dropped_budget"


def test_double_greedy_grow_equals_shrink():
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)], directed=True)
    econ = NodeEconomics((4, 5, 6, 7), (12, 3, 14, 5))
    out = double_greedy(g, econ, 12, CFG, RandomSource(7))
    added = {e.node for e in out.trace if e.decision == "added"}
    dropped = {e.node for e in out.trace if e.decision.startswith("dropped")}
    assert added == set(out.seeds)
    assert added | dropped == set(g.nodes)
    assert not added & dropped


def test_random_baseline():
    g, econ = isolated_nodes([3, 3, 3], [10, 10, 10])
    assert baseline_random(g, econ, 0, RandomSource(0)).seeds == ()
    assert baseline_random(g, econ, 3, RandomSource(1)).spent == 3
    a = baseline_random(g, econ, 6, RandomSource(5))
    b = baseline_random(g, econ, 6, RandomSource(5))
    assert a == b


def test_high_degree_takes_star_center_first():
    g = build_graph([(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5)], directed=False)
    econ = NodeEconomics((5, 5, 5, 5), (100, 100, 100, 100))
    out = baseline_high_degree(g, econ, 5, CFG, RandomSource(0))
    assert out.seeds == (0,)
    assert baseline_high_degree(g, econ, 0, CFG, RandomSource(0)).seeds == ()


def test_high_degree_ties_break_by_id():
    g = build_graph([(0, 1, 0.5), (2, 3, 0.5)], directed=True)
    econ = NodeEconomics((5, 5, 5, 5), (100, 100, 100, 100))
    out = baseline_high_degree(g, econ, 5, CFG, RandomSource(0))
    assert out.trace[0].node == 0


def test_clustering_baseline_prefers_triangle():
    edges = [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5), (3, 4, 0.5)]
    g = build_graph(edges, directed=False)
    econ = NodeEconomics((5,) * 5, (100,) * 5)
    out = baseline_clustering_coefficient(g, econ, 5, CFG, RandomSource(0))
    assert out.trace[0].node == 0
    assert out.seeds == (0,)


def test_clustering_all_zero_scans_by_id():
    g = build_graph([(0, 1, 0.5), (2, 3, 0.5)], directed=True)
    econ = NodeEconomics((5,) * 4, (100,) * 4)
    out = baseline_clustering_coefficient(g, econ, 20, CFG, RandomSource(0))
    assert [e.node for e in out.trace] == [0, 1, 2, 3]


def test_single_discount_reorders_after_pick():
    # 0 -> {1,2,3} deg 3; 1 -> {2,3} deg 2; 4 -> {5,6} deg 2
    edges = [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5),
             (1, 2, 0.5), (1, 3, 0.5), (4, 5, 0.5), (4, 6, 0.5)]
    g = build_graph(edges, directed=True)
    econ = NodeEconomics((5,) * 7, (500,) * 7)
    plain = baseline_high_degree(g, econ, 35, CFG, RandomSource(0))
    discounted = baseline_single_discount(g, econ, 35, CFG, RandomSource(0))
    # picking 0 discounts node 1's effective degree to 1, so 4 jumps ahead
    assert [e.node for e in plain.trace][:3] == [0, 1, 4]
    assert [e.node for e in discounted.trace][:3] == [0, 4, 1]


def test_single_discount_no_edges_scans_by_id():
    g, econ = isolated_nodes([2, 2, 2], [9, 9, 9])
    out = baseline_single_discount(g, econ, 5, CFG, RandomSource(0))
    assert [e.node for e in out.trace] == [0, 1, 2]
    assert out.seeds == (0, 1)  # third node hits the budget gate


def _min_scan_single_discount(g, econ, budget, cfg, source):
    # reference: the whole-pool min() loop with its own gates and trace
    cost = econ.cost
    effective = {u: degree(g, u) for u in g.nodes}
    pool = set(effective)
    selected = []
    remaining = budget
    trace = []
    i = 0
    while pool:
        u = min(pool, key=lambda v: (-effective[v], v))
        pool.remove(u)
        if cost[u] > remaining:
            trace.append(TraceEntry(i, u, "unaffordable"))
            i += 1
            continue
        gain = marginal_profit_gain(g, econ, selected, u, cfg, source.child("evaluate", i))
        ratio = gain / cost[u]
        if gain >= 0.0:
            selected.append(u)
            remaining -= cost[u]
            trace.append(TraceEntry(i, u, "accepted", ratio))
            for v, _ in g.out_arcs(u):
                if v in effective:
                    effective[v] -= 1
        else:
            trace.append(TraceEntry(i, u, "rejected_gain", ratio))
        i += 1
    spent = seed_cost(econ, selected)
    return SelectionOutcome(tuple(sorted(selected)), spent, budget - spent, tuple(trace))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_single_discount_matches_min_scan(seed):
    rnd = random.Random(seed)
    n = rnd.randint(2, 9)
    if rnd.random() < 0.3:
        # a ring: every degree ties until the first acceptance
        edges = [(u, (u + 1) % n, 0.3) for u in range(n)]
        directed = False
    else:
        edges = [(u, v, rnd.choice([0.1, 0.4, 0.8]))
                 for u in range(n) for v in range(n) if u != v and rnd.random() < 0.35]
        directed = rnd.random() < 0.5
    edges = edges or [(0, n - 1, 0.5)]
    g = build_graph(edges, directed)
    size = g.base_node_count
    econ = NodeEconomics(tuple(rnd.randint(1, 9) for _ in range(size)),
                         tuple(rnd.randint(1, 12) for _ in range(size)))
    if rnd.random() < 0.5:
        g = exclude_nodes(g, rnd.sample(range(size), rnd.randint(1, size - 1)))
    # tight budgets: from nothing up to a few typical costs
    budget = rnd.randint(0, 20)
    cfg = EstimatorConfig(replications=8)
    source = RandomSource(seed)
    assert baseline_single_discount(g, econ, budget, cfg, source) == \
        _min_scan_single_discount(g, econ, budget, cfg, source)


def test_select_dispatch_and_unknown_name():
    g, econ = isolated_nodes([3], [10])
    out = select("single_greedy", g, econ, 5, CFG, RandomSource(0))
    assert out.seeds == (0,)
    with pytest.raises(ValueError):
        select("does_not_exist", g, econ, 5, CFG, RandomSource(0))


def test_negative_budget_rejected():
    g, econ = isolated_nodes([3], [10])
    with pytest.raises(ValueError):
        single_greedy(g, econ, -1, CFG, RandomSource(0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 60))
def test_all_selectors_respect_budget_and_uniqueness(seed, budget):
    rnd = random.Random(seed)
    n = rnd.randint(2, 8)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rnd.random() < 0.3:
                edges.append((u, v, rnd.choice([0.2, 0.5, 0.9])))
    if not any(n - 1 in (u, v) for u, v, _ in edges):
        edges.append((0, n - 1, 0.5))
    g = build_graph(edges, directed=True)
    econ = NodeEconomics(tuple(rnd.randint(1, 9) for _ in range(g.base_node_count)),
                         tuple(rnd.randint(1, 30) for _ in range(g.base_node_count)))
    fast = EstimatorConfig(replications=12)
    for name in SELECTORS:
        out = select(name, g, econ, budget, fast, RandomSource(seed).child(name))
        assert out.spent <= budget
        assert out.spent == seed_cost(econ, out.seeds)
        assert out.remaining_budget == budget - out.spent
        assert len(set(out.seeds)) == len(out.seeds)
