import math
import random

import pytest

from profitmax.diffusion import enumerate_live_graphs, reachable_set, sample_live_graphs
from profitmax.graph import NodeEconomics, build_graph, exclude_nodes, seed_cost
from profitmax.profit import (
    EstimatorConfig,
    estimate_benefit,
    estimate_influence,
    estimate_profit,
    exact_benefit,
    exact_profit,
    marginal_profit_gain,
    SnapshotCoverage,
)
from profitmax.rng import RandomSource

CFG = EstimatorConfig(replications=200)


def test_influence_of_nothing_is_exactly_zero():
    g = build_graph([(0, 1, 0.5)], directed=True)
    est = estimate_influence(g, set(), CFG, RandomSource(0).stream("i"))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_influence_deterministic_chain():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    est = estimate_influence(g, {0}, CFG, RandomSource(0).stream("i"))
    assert est.mean == 3.0 and est.std_error == 0.0


def test_influence_single_coin_flip():
    g = build_graph([(0, 1, 0.5)], directed=True)
    est = estimate_influence(g, {0}, EstimatorConfig(replications=50_000),
                             RandomSource(5).stream("i"))
    assert abs(est.mean - 1.5) <= 3 * est.std_error


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
    est = estimate_profit(g, econ, set(), CFG, RandomSource(0).stream("p"))
    assert est.mean == 0.0 and est.std_error == 0.0
    assert exact_profit(g, econ, set()) == 0.0


def test_profit_isolated_node_is_deterministic():
    g = exclude_nodes(build_graph([(1, 2, 1.0)], directed=True), {1, 2})
    econ = NodeEconomics((3, 1, 1), (10, 1, 1))
    est = estimate_profit(g, econ, {0}, CFG, RandomSource(0).stream("p"))
    assert est.mean == 7.0 and est.std_error == 0.0


def test_profit_estimate_tracks_exact_value():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((3, 3), (10, 10))
    exact = exact_profit(g, econ, {0})
    assert exact == pytest.approx(12.0)
    est = estimate_profit(g, econ, {0}, EstimatorConfig(replications=50_000),
                          RandomSource(11).stream("p"))
    assert abs(est.mean - exact) <= 3 * est.std_error


def test_profit_decomposes_into_benefit_minus_cost():
    g = build_graph([(0, 1, 0.4), (1, 2, 0.7), (0, 2, 0.2)], directed=True)
    econ = NodeEconomics((5, 7, 9), (20, 30, 40))
    src = RandomSource(21).child("shared")
    profit = estimate_profit(g, econ, {0, 1}, CFG, src.generator())
    benefit = estimate_benefit(g, econ, {0, 1}, CFG, src.generator())
    assert profit.mean + seed_cost(econ, {0, 1}) == pytest.approx(benefit.mean, abs=1e-9)
    assert profit.std_error == benefit.std_error


def test_universe_restriction_per_live_graph():
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.5)], directed=True)
    econ = NodeEconomics((1, 1, 1, 1), (10, 20, 30, 40))
    universe = {0, 2}
    for live in enumerate_live_graphs(g):
        reach = reachable_set(live, g, {0})
        full = sum(econ.benefit[v] for v in reach)
        inside = sum(econ.benefit[v] for v in reach if v in universe)
        outside = sum(econ.benefit[v] for v in reach if v not in universe)
        assert inside == full - outside
    restricted = exact_benefit(g, econ, {0}, universe=universe)
    by_difference = exact_benefit(g, econ, {0}) - sum(
        live.generation_probability
        * sum(econ.benefit[v] for v in reachable_set(live, g, {0}) if v not in universe)
        for live in enumerate_live_graphs(g)
    )
    assert restricted == pytest.approx(by_difference)


def test_free_seeds_diffuse_without_cost():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    econ = NodeEconomics((5, 5, 5), (10, 20, 40))
    est = estimate_profit(g, econ, set(), CFG, RandomSource(0).stream("p"),
                          universe={1, 2}, free_seeds={0})
    # frontier node 0 costs nothing and is outside the universe; 1 and 2 count
    assert est.mean == 60.0 and est.std_error == 0.0
    assert exact_benefit(g, econ, set(), universe={1, 2}, free_seeds={0}) == 60.0


def test_marginal_gain_examples():
    lone = exclude_nodes(build_graph([(1, 2, 1.0)], directed=True), {1, 2})
    econ = NodeEconomics((3, 1, 1), (10, 1, 1))
    gain = marginal_profit_gain(lone, econ, set(), 0, CFG, RandomSource(0).child("g"))
    assert gain == 7.0

    pricey = NodeEconomics((50, 1, 1), (5, 1, 1))
    gain = marginal_profit_gain(lone, pricey, set(), 0, CFG, RandomSource(0).child("g"))
    assert gain == -45.0


def test_marginal_gain_of_already_covered_node():
    diamond = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)], directed=True)
    econ = NodeEconomics((2, 4, 6, 8), (10, 10, 10, 10))
    gain = marginal_profit_gain(diamond, econ, {0}, 1, CFG, RandomSource(9).child("g"))
    exact = exact_profit(diamond, econ, {0, 1}) - exact_profit(diamond, econ, {0})
    assert exact == -econ.cost[1]
    assert gain == pytest.approx(exact)


def test_marginal_gain_rejects_member():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((1, 1), (2, 2))
    with pytest.raises(ValueError):
        marginal_profit_gain(g, econ, {0}, 0, CFG, RandomSource(0).child("g"))


def test_common_random_numbers_cancel_noise():
    g = build_graph([(0, 1, 0.3), (1, 2, 0.3), (2, 3, 0.3)], directed=True)
    econ = NodeEconomics((1, 1, 1, 1), (100, 100, 100, 100))
    # node 3 is disconnected downstream of S={0}; its true gain is constant
    crn = EstimatorConfig(replications=50, common_random_numbers=True)
    indep = EstimatorConfig(replications=50, common_random_numbers=False)
    src = RandomSource(13)
    crn_gains = [marginal_profit_gain(g, econ, {0}, 3, crn, src.child("crn", i)) for i in range(30)]
    ind_gains = [marginal_profit_gain(g, econ, {0}, 3, indep, src.child("ind", i)) for i in range(30)]

    def spread(xs):
        mean = sum(xs) / len(xs)
        return sum((x - mean) ** 2 for x in xs)

    assert spread(crn_gains) < spread(ind_gains)


def test_invalid_seed_rejected():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((1, 1), (2, 2))
    with pytest.raises(ValueError):
        estimate_profit(g, econ, {5}, CFG, RandomSource(0).stream("p"))


def _snapshot_profit(g, econ, seeds, replications, rng, mode):
    """Mean and standard error of a seed set's profit over sampled live graphs."""
    sample = sample_live_graphs(g, replications, rng, mode)
    cover = SnapshotCoverage(sample, econ.benefit)
    for u in seeds:
        cover.add(u)
    per_snapshot = [sum(econ.benefit[u] for u in g.nodes
                        if cover.covered[u * replications + r])
                    for r in range(replications)]
    mean = sum(per_snapshot) / replications
    assert mean == cover.total / replications
    var = sum((x - mean) ** 2 for x in per_snapshot) / (replications - 1)
    return mean - seed_cost(econ, seeds), math.sqrt(var / replications), sample


def test_snapshot_profit_matches_enumeration_oracle():
    rnd = random.Random(20240917)
    source = RandomSource(4)
    replications = 20_000
    levels = [round(0.1 * k, 1) for k in range(1, 10)]
    for k in range(12):
        n = rnd.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        chosen = rnd.sample(pairs, rnd.randint(1, min(12, len(pairs))))
        uniform = rnd.choice(levels) if k % 2 == 0 else None
        g = build_graph([(u, v, uniform or rnd.choice(levels)) for u, v in chosen], directed=True)
        size = g.base_node_count
        econ = NodeEconomics(tuple(rnd.randint(50, 100) for _ in range(size)),
                             tuple(rnd.randint(800, 1000) for _ in range(size)))
        removed = set(rnd.sample(range(size), 1)) if k % 3 == 0 else set()
        view = exclude_nodes(g, removed)
        seeds = sorted(rnd.sample(view.nodes, rnd.randint(1, 2)))
        truth = exact_profit(view, econ, seeds)
        modes = ("bernoulli", "geometric") if uniform is not None else ("bernoulli",)
        for mode in modes:
            mean, se, sample = _snapshot_profit(view, econ, seeds, replications,
                                                source.stream(mode, k), mode)
            assert abs(mean - truth) <= 3 * se + 1e-9, (k, mode, mean, truth, se)
            for u in removed:
                assert all(y // replications != u for y in sample.targets)
                x = u * replications
                assert sample.offsets[x] == sample.offsets[x + replications]
