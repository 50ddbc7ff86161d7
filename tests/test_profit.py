import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from profitmax.diffusion import (GEOMETRIC_P_CUTOFF, SnapshotCoverage, _geometric_scale,
                                 _live_worlds, gain_bounds, sample_live_graphs)
from profitmax.graph import NodeEconomics, build_graph, exclude_nodes, seed_cost
from profitmax.profit import (
    estimate_profit,
    exact_benefit,
    exact_profit,
    marginal_profit_gain,
)
from profitmax.rng import RandomSource

REPLICATIONS = 200


def unit(g):
    """Economics under which profit plus the seed count is the influence."""
    return NodeEconomics((1,) * g.base_node_count, (1,) * g.base_node_count)


def test_influence_of_nothing_is_exactly_zero():
    g = build_graph([(0, 1, 0.5)], directed=True)
    est = estimate_profit(g, unit(g), set(), REPLICATIONS, RandomSource(0).stream("i"))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_influence_deterministic_chain():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    est = estimate_profit(g, unit(g), {0}, REPLICATIONS, RandomSource(0).stream("i"))
    assert est.mean + 1 == 3.0 and est.std_error == 0.0


def test_influence_single_coin_flip():
    g = build_graph([(0, 1, 0.5)], directed=True)
    est = estimate_profit(g, unit(g), {0}, 50_000,
                          RandomSource(5).stream("i"))
    assert abs(est.mean + 1 - 1.5) <= 3 * est.std_error


def test_exact_benefit_examples():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((3, 3), (10, 10))
    assert exact_benefit(g, econ, set()) == 0.0
    assert exact_benefit(g, econ, {0}) == pytest.approx(15.0)

    lone = exclude_nodes(build_graph([(1, 2, 1.0)], directed=True), {1, 2})
    lone_econ = NodeEconomics((1, 1, 1), (800, 900, 900))
    assert exact_benefit(lone, lone_econ, {0}) == 800.0


def test_exact_benefit_refuses_large_graphs():
    g = build_graph([(i, i + 1, 0.5) for i in range(30)], directed=True)
    econ = NodeEconomics((1,) * 31, (1,) * 31)
    with pytest.raises(ValueError):
        exact_benefit(g, econ, {0})


def test_profit_of_nothing_is_exactly_zero():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((3, 3), (10, 10))
    est = estimate_profit(g, econ, set(), REPLICATIONS, RandomSource(0).stream("p"))
    assert est.mean == 0.0 and est.std_error == 0.0
    assert exact_profit(g, econ, set()) == 0.0


def test_profit_isolated_node_is_deterministic():
    g = exclude_nodes(build_graph([(1, 2, 1.0)], directed=True), {1, 2})
    econ = NodeEconomics((3, 1, 1), (10, 1, 1))
    est = estimate_profit(g, econ, {0}, REPLICATIONS, RandomSource(0).stream("p"))
    assert est.mean == 7.0 and est.std_error == 0.0


def test_profit_estimate_tracks_exact_value():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((3, 3), (10, 10))
    exact = exact_profit(g, econ, {0})
    assert exact == pytest.approx(12.0)
    est = estimate_profit(g, econ, {0}, 50_000,
                          RandomSource(11).stream("p"))
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_free_seeds_earn_nothing_per_live_graph():
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.5), (3, 2, 0.5)], directed=True)
    econ = NodeEconomics((1, 2, 3, 4), (10, 20, 30, 40))
    index, worlds = _live_worlds(g)
    worlds = list(worlds)
    src = RandomSource(6)
    # free seeds start the cascade and earn nothing; a node passed as both a
    # seed and a free seed stays a priced seed, which pays and earns
    cases = (({0}, set()), (set(), {0}), ({1}, {0}), ({0}, {0, 3}), ({0, 1}, {1, 3}))
    for k, (seeds, free) in enumerate(cases):
        start = sorted(seeds | free)
        truth = sum(prob * sum(econ.benefit[v] for v in index.reach(mask, start)
                               if v in seeds or v not in free)
                    for mask, prob in worlds)
        assert exact_benefit(g, econ, seeds, free_seeds=free) == pytest.approx(truth)
        profit = exact_profit(g, econ, seeds, free_seeds=free)
        assert profit == pytest.approx(truth - seed_cost(econ, seeds))
        est = estimate_profit(g, econ, seeds, 20_000,
                              src.stream("free", k), free_seeds=free)
        assert abs(est.mean - profit) <= 3 * est.std_error, (seeds, free)


def test_free_seeds_diffuse_without_cost():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    econ = NodeEconomics((5, 5, 5), (10, 20, 40))
    est = estimate_profit(g, econ, set(), REPLICATIONS, RandomSource(0).stream("p"), free_seeds={0})
    # frontier node 0 costs and earns nothing; 1 and 2 count
    assert est.mean == 60.0 and est.std_error == 0.0
    assert exact_benefit(g, econ, set(), free_seeds={0}) == 60.0


def test_marginal_gain_examples():
    lone = exclude_nodes(build_graph([(1, 2, 1.0)], directed=True), {1, 2})
    econ = NodeEconomics((3, 1, 1), (10, 1, 1))
    gain = marginal_profit_gain(lone, econ, set(), 0, REPLICATIONS, RandomSource(0).child("g"))
    assert gain == 7.0

    pricey = NodeEconomics((50, 1, 1), (5, 1, 1))
    gain = marginal_profit_gain(lone, pricey, set(), 0, REPLICATIONS, RandomSource(0).child("g"))
    assert gain == -45.0


def test_marginal_gain_of_already_covered_node():
    diamond = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)], directed=True)
    econ = NodeEconomics((2, 4, 6, 8), (10, 10, 10, 10))
    gain = marginal_profit_gain(diamond, econ, {0}, 1, REPLICATIONS, RandomSource(9).child("g"))
    exact = exact_profit(diamond, econ, {0, 1}) - exact_profit(diamond, econ, {0})
    assert exact == -econ.cost[1]
    assert gain == pytest.approx(exact)


def test_marginal_gain_rejects_member():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((1, 1), (2, 2))
    with pytest.raises(ValueError):
        marginal_profit_gain(g, econ, {0}, 0, REPLICATIONS, RandomSource(0).child("g"))


def test_common_random_numbers_cancel_noise():
    g = build_graph([(0, 1, 0.3), (1, 2, 0.3), (2, 3, 0.3)], directed=True)
    econ = NodeEconomics((1, 1, 1, 1), (100, 100, 100, 100))
    # node 3 is disconnected downstream of S={0}; its true gain is constant
    replications = 50
    src = RandomSource(13)

    def independent_gain(source):
        # the same two estimates as marginal_profit_gain, on separate streams
        with_u = estimate_profit(g, econ, {0, 3}, replications, source.stream("with"))
        without_u = estimate_profit(g, econ, {0}, replications, source.stream("without"))
        return with_u.mean - without_u.mean

    crn_gains = [marginal_profit_gain(g, econ, {0}, 3, replications, src.child("crn", i))
                 for i in range(30)]
    ind_gains = [independent_gain(src.child("ind", i)) for i in range(30)]

    def spread(xs):
        mean = sum(xs) / len(xs)
        return sum((x - mean) ** 2 for x in xs)

    assert spread(crn_gains) < spread(ind_gains)


def test_invalid_seed_rejected():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((1, 1), (2, 2))
    with pytest.raises(ValueError):
        estimate_profit(g, econ, {5}, REPLICATIONS, RandomSource(0).stream("p"))


def test_replication_count_must_be_positive():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((1, 1), (2, 2))
    with pytest.raises(ValueError, match="replications must be >= 1"):
        estimate_profit(g, econ, {0}, 0, RandomSource(0).stream("p"))
    with pytest.raises(ValueError, match="replications must be >= 1"):
        marginal_profit_gain(g, econ, set(), 0, 0, RandomSource(0).child("g"))
    with pytest.raises(ValueError, match="replications must be >= 1, got 0$"):
        sample_live_graphs(g, 0, RandomSource(0).stream("snapshots"))


def test_coverage_starts_with_a_views_removed_nodes_and_the_free_reach_covered():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], directed=True)
    sample = sample_live_graphs(g, 3, RandomSource(0).stream("snapshots"))
    value = (1, 1, 1, 1)
    view = exclude_nodes(g, {1, 3})
    assert SnapshotCoverage(sample, value).covered == bytearray(12)
    assert SnapshotCoverage(sample, value, g).covered == bytearray(12)
    assert SnapshotCoverage(sample, value, view).covered == \
        bytearray([0] * 3 + [1] * 3 + [0] * 3 + [1] * 3)
    # free seeds cover their reach on the view: 0 reaches nothing past the
    # removed 1, and 2's reach is the removed 3
    assert SnapshotCoverage(sample, value, g, [0]).covered == bytearray([1] * 12)
    assert SnapshotCoverage(sample, value, view, [0]).covered == \
        bytearray([1] * 6 + [0] * 3 + [1] * 3)
    assert SnapshotCoverage(sample, value, view, [2]).covered == \
        bytearray([0] * 3 + [1] * 9)
    # a sample of another base graph does not fit, whatever the view removes
    smaller = build_graph([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    for other in (smaller, exclude_nodes(smaller, {0})):
        with pytest.raises(ValueError, match="does not fit"):
            SnapshotCoverage(sample, value, other)


def _snapshot_profit(g, view, econ, seeds, replications, rng):
    """Mean and standard error of a seed set's profit on ``view`` over sampled live graphs.

    The live graphs are of the base graph ``g``; the view's removed copies are blocked.
    """
    sample = sample_live_graphs(g, replications, rng)
    cover = SnapshotCoverage(sample, econ.benefit, view)
    total = 0
    for u in seeds:
        reached = cover.reach(u)
        total += cover.benefit(u, reached)
        cover.add(u, reached)
    per_snapshot = [sum(econ.benefit[u] for u in view.nodes
                        if cover.covered[u * replications + r])
                    for r in range(replications)]
    mean = sum(per_snapshot) / replications
    assert mean == total / replications
    var = sum((x - mean) ** 2 for x in per_snapshot) / (replications - 1)
    return mean - seed_cost(econ, seeds), math.sqrt(var / replications)


def test_snapshot_profit_matches_enumeration_oracle():
    rnd = random.Random(20240917)
    source = RandomSource(4)
    replications = 20_000
    levels = [round(0.1 * k, 1) for k in range(1, 10)]
    # the graph picks the sampler: even instances share a probability below
    # GEOMETRIC_P_CUTOFF and take geometric gaps; odd ones share a higher
    # one or mix them, and draw per arc
    below = [p for p in levels if p < GEOMETRIC_P_CUTOFF]
    ran = {True: [], False: []}
    for k in range(12):
        n = rnd.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        chosen = rnd.sample(pairs, rnd.randint(1, min(12, len(pairs))))
        if k % 2 == 0:
            uniform = rnd.choice(below)
        elif k % 4 == 1:
            uniform = rnd.choice(levels[len(below):])
        else:
            uniform = None
        g = build_graph([(u, v, uniform or rnd.choice(levels)) for u, v in chosen], directed=True)
        size = g.base_node_count
        econ = NodeEconomics(tuple(rnd.randint(50, 100) for _ in range(size)),
                             tuple(rnd.randint(800, 1000) for _ in range(size)))
        removed = set(rnd.sample(range(size), 1)) if k % 3 == 0 else set()
        view = exclude_nodes(g, removed)
        seeds = sorted(rnd.sample(view.nodes, rnd.randint(1, 2)))
        truth = exact_profit(view, econ, seeds)
        geometric = _geometric_scale(view) is not None
        ran[geometric].append(bool(removed))
        mean, se = _snapshot_profit(g, view, econ, seeds, replications,
                                    source.stream("snapshots", k))
        assert abs(mean - truth) <= 3 * se + 1e-9, (k, geometric, mean, truth, se)
    # both samplers ran on at least 4 instances each, a view among them
    for views in ran.values():
        assert len(views) >= 4 and any(views)


def _gain_table_instance(seed, replications):
    """A random graph or a view of one, its sample, and integer benefits."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 9)
    uniform = rnd.choice([None, 0.2, 0.5, 0.9])
    edges = [(u, v, uniform or rnd.choice([0.3, 0.6, 1.0]))
             for u in range(n) for v in range(n) if u != v and rnd.random() < 0.35]
    g = build_graph(edges or [(0, n - 1, 1.0)], directed=rnd.random() < 0.5)
    size = g.base_node_count
    if rnd.random() < 0.3:
        g = exclude_nodes(g, rnd.sample(range(size), rnd.randint(1, size - 1)))
    value = tuple(rnd.randint(1, 9) for _ in range(size))
    sample = sample_live_graphs(g, replications, RandomSource(seed).stream("table"))
    return rnd, g, value, sample


def _coverage_gains(sample, value, view, nodes):
    cover = SnapshotCoverage(sample, value, view)
    return [cover.benefit(u, cover.reach(u)) for u in nodes]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6))
def test_gain_table_bounds_coverage_on_views(seed, replications):
    rnd, sampled, value, sample = _gain_table_instance(seed, replications)
    views = [sampled]
    for _ in range(3):
        view = exclude_nodes(sampled, rnd.sample(sampled.nodes, rnd.randint(0, sampled.node_count)))
        views.append(view)
        if view.nodes:
            views.append(exclude_nodes(view, rnd.sample(view.nodes, rnd.randint(1, view.node_count))))
    bounds = gain_bounds(sample, value)
    # the sample is of the base graph, whatever the sampled view removes:
    # blocking a view's removed copies only takes reach away, and a view
    # that removes nothing loses none
    for view in views:
        gains = _coverage_gains(sample, value, view, view.nodes)
        if not view.removed:
            assert gains == [bounds[u] for u in view.nodes]
        else:
            assert all(bounds[u] >= gain for u, gain in zip(view.nodes, gains))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 6))
def test_gain_table_without_removed_nodes_is_the_node_sums(seed, replications):
    _, _, value, sample = _gain_table_instance(seed, replications)
    everyone = range(sample.node_count)
    assert list(gain_bounds(sample, value)) == _coverage_gains(sample, value, None, everyone)
