import gc
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from profitmax import diffusion, selection, twophase
from profitmax.diffusion import PartialObservation
from profitmax.graph import NodeEconomics, build_graph, exclude_nodes
from profitmax.loader import AttributeSpec, generate_attributes, preferential_attachment_graph
from profitmax.profit import estimate_profit, exact_profit
from profitmax.rng import RandomSource
from profitmax.selection import select
from profitmax.twophase import (
    PhaseConfig,
    cell_sample,
    exact_two_phase_profit,
    run_phase1,
    run_phase2,
    run_single_phase,
    run_two_phase,
)


def chain3(p=1.0):
    return build_graph([(0, 1, p), (1, 2, p)], directed=True)


ECON3 = NodeEconomics((3, 3, 3), (10, 10, 10))


def cfg(**kw):
    base = dict(total_budget=6, split_fraction=0.5, observation_step=1,
                phase1_observations=5, phase2_runs_per_observation=20,
                algorithm="single_greedy", master_seed=11, selection_replications=40)
    base.update(kw)
    return PhaseConfig(**base)


def test_config_rejects_no_selection_replications():
    with pytest.raises(ValueError, match="selection_replications must be >= 1"):
        cfg(selection_replications=0)


def test_config_validation_and_split():
    c = cfg(total_budget=10, split_fraction=0.6)
    assert c.budget_phase1 == 6 and c.budget_phase2 == 4
    assert c.budget_phase1 + c.budget_phase2 == c.total_budget
    with pytest.raises(ValueError):
        cfg(split_fraction=1.5)
    with pytest.raises(ValueError):
        cfg(observation_step=0)
    with pytest.raises(ValueError):
        cfg(algorithm="nope")


def test_phase1_zero_budget():
    c = cfg(total_budget=0)
    outcome, observations = run_phase1(c, chain3(), ECON3)
    assert outcome.seeds == ()
    assert all(o.already_active == frozenset() == o.newly_active for o in observations)


def test_phase1_deterministic_graph_identical_observations():
    outcome, observations = run_phase1(cfg(), chain3(p=1.0), ECON3)
    assert outcome.seeds == (0,)
    assert len({(o.already_active, o.newly_active) for o in observations}) == 1
    assert observations[0].already_active == frozenset({0, 1})
    assert observations[0].newly_active == frozenset({1})


def test_phase1_observation_frequencies_match_arc_probability():
    g = build_graph([(0, 1, 0.5)], directed=True)
    econ = NodeEconomics((3, 3), (10, 10))
    c = cfg(total_budget=6, phase1_observations=2000)
    outcome, observations = run_phase1(c, g, econ)
    assert outcome.seeds == (0,)
    hits = sum(1 in o.already_active for o in observations)
    se = (0.25 / len(observations)) ** 0.5
    assert abs(hits / len(observations) - 0.5) <= 3 * se


def test_phase2_everything_already_active():
    obs = PartialObservation(frozenset({0, 1, 2}), frozenset({1}))
    outcome, _ = run_phase1(cfg(), chain3(), ECON3)
    rec = run_phase2(cfg(), chain3(), ECON3, outcome, obs, 0)
    assert rec.phase2_selection.seeds == ()
    assert rec.phase2_profit.mean == 0.0


def test_phase2_refuses_a_frontier_outside_the_active_set():
    outcome, _ = run_phase1(cfg(), chain3(), ECON3)
    obs = PartialObservation(frozenset({0}), frozenset({0, 1}))
    with pytest.raises(ValueError, match="frontier not contained in active set"):
        run_phase2(cfg(), chain3(), ECON3, outcome, obs, 0)


def test_phase2_dead_phase_is_zero():
    c = cfg(total_budget=0)
    outcome, _ = run_phase1(c, chain3(), ECON3)
    obs = PartialObservation(frozenset(), frozenset())
    rec = run_phase2(c, chain3(), ECON3, outcome, obs, 0)
    assert rec.phase2_selection.seeds == ()
    assert rec.phase2_profit.mean == 0.0


def test_phase2_frontier_carries_cascade_for_free():
    # frontier {0} on a certain chain delivers the benefit of 1 and 2 at no cost
    c = cfg(total_budget=0)
    outcome, _ = run_phase1(c, chain3(p=1.0), ECON3)
    obs = PartialObservation(frozenset({0}), frozenset({0}))
    rec = run_phase2(c, chain3(p=1.0), ECON3, outcome, obs, 0)
    assert rec.phase2_selection.seeds == ()
    assert rec.phase2_profit.mean == ECON3.benefit[1] + ECON3.benefit[2]
    assert rec.phase2_profit.std_error == 0.0


def test_phase2_budget_rollover_and_exclusions():
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)], directed=True)
    econ = NodeEconomics((2, 2, 2, 2, 2), (9, 9, 9, 9, 9))
    c = cfg(total_budget=5, split_fraction=0.6, algorithm="single_greedy")
    result = run_two_phase(c, g, econ)
    rollover = c.budget_phase2 + result.phase1.remaining_budget
    for rec in result.observations:
        assert rec.phase2_budget == rollover
        assert rec.phase2_selection.spent <= rec.phase2_budget
        assert not set(rec.phase2_selection.seeds) & rec.already_active
        assert result.phase1.spent + rec.phase2_selection.spent <= c.total_budget


def test_two_phase_single_observation_aggregate():
    c = cfg(phase1_observations=1)
    result = run_two_phase(c, chain3(), ECON3)
    assert result.best_total_profit == result.observations[0].total_profit
    assert result.mean_total_profit == result.best_total_profit
    assert result.std_total_profit == 0.0


def test_two_phase_deterministic_instance_max_equals_mean():
    result = run_two_phase(cfg(), chain3(p=1.0), ECON3)
    assert result.best_total_profit == pytest.approx(result.mean_total_profit)
    assert result.std_total_profit == pytest.approx(0.0)


def test_two_phase_reruns_identically():
    g = preferential_attachment_graph(30, 2, seed=5, probability=0.1)
    econ = generate_attributes(g, AttributeSpec((2, 5), (8, 20), attribute_seed=3))
    c = cfg(total_budget=12, algorithm="double_greedy", phase1_observations=4,
            phase2_runs_per_observation=10, selection_replications=15)
    a = run_two_phase(c, g, econ)
    b = run_two_phase(c, g, econ)
    assert a == b


def _repeating_cell(algorithm):
    # few phase-one seeds watched for one step: observations repeat often
    g = preferential_attachment_graph(30, 2, seed=5, probability=0.05)
    econ = generate_attributes(g, AttributeSpec((2, 5), (8, 20), attribute_seed=3))
    c = cfg(total_budget=12, algorithm=algorithm, phase1_observations=20,
            phase2_runs_per_observation=10, selection_replications=15)
    return c, g, econ


def _count_calls(monkeypatch, counts, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[f"{module.__name__}.{name}"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("algorithm", ["single_greedy", "double_greedy"])
def test_greedy_cell_samples_once_and_selects_once_per_observation(monkeypatch, algorithm):
    c, g, econ = _repeating_cell(algorithm)
    counts = Counter()
    for module, name in ((twophase, "sample_live_graphs"), (twophase, "select"),
                         (twophase, "estimate_profit")):
        _count_calls(monkeypatch, counts, module, name)
    result = run_two_phase(c, g, econ)
    keys = [(r.already_active, r.newly_active) for r in result.observations]
    assert len(set(keys)) < len(keys), "the instance must repeat an observation"
    # one sample for the whole cell, phase one included
    assert counts["profitmax.twophase.sample_live_graphs"] == 1
    assert counts["profitmax.twophase.select"] == 1 + len(set(keys))
    assert counts["profitmax.twophase.estimate_profit"] == len(keys)
    first = {}
    for i, (key, rec) in enumerate(zip(keys, result.observations)):
        assert rec.phase2_selection is first.setdefault(key, rec.phase2_selection)
        # every record keeps its own evaluation stream
        est = estimate_profit(
            exclude_nodes(g, rec.already_active - rec.newly_active), econ,
            rec.phase2_selection.seeds, c.phase2_runs_per_observation,
            RandomSource(c.master_seed).child("phase2", i).stream("evaluate"),
            free_seeds=rec.newly_active)
        assert rec.phase2_profit == est

    # the same cell with the memo bypassed selects per observation, and agrees
    unmemoized = twophase.run_phase2

    def without_memo(cfg, g, econ, phase1_outcome, obs, index, memo):
        return unmemoized(cfg, g, econ, phase1_outcome, obs, index, None)

    monkeypatch.setattr(twophase, "run_phase2", without_memo)
    counts.clear()
    assert run_two_phase(c, g, econ) == result
    assert counts["profitmax.twophase.select"] == 1 + len(keys)


def _phase2_view(g, rec):
    # what phase two selects on: the graph without the already-active
    # interior, with the observed frontier as free seeds
    return exclude_nodes(g, rec.already_active - rec.newly_active), rec.newly_active


def test_replay_accepts_shared_sample_phase2_outcome():
    c, g, econ = _repeating_cell("single_greedy")
    result = run_two_phase(c, g, econ)
    shared = cell_sample(c, g)
    assert any(rec.newly_active for rec in result.observations)
    for rec in result.observations:
        outcome = rec.phase2_selection
        budget = outcome.spent + outcome.remaining_budget
        view, free = _phase2_view(g, rec)
        assert select("single_greedy", view, econ, budget,
                      c.selection_replications, None, shared, free) == outcome


def _record_everywhere(monkeypatch, fn, results):
    # rebind fn under every name a profitmax module holds it by, so each call
    # is seen wherever it comes from; results keeps what each call returned
    def recorded(*args):
        out = fn(*args)
        results.append(out)
        return out

    for module_name, module in list(sys.modules.items()):
        if module_name == "profitmax" or module_name.startswith("profitmax."):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, recorded)


def _check_cell_draws(monkeypatch, algorithm):
    # a cell draws its sample once and builds single greedy's gain bounds on
    # it once, over both runs: the single phase run reuses the two-phase run's
    # draw and bounds, whoever draws or builds them
    draws, bounds = [], []
    _record_everywhere(monkeypatch, diffusion.sample_live_graphs, draws)
    _record_everywhere(monkeypatch, diffusion.gain_bounds, bounds)
    counts = Counter()
    _count_calls(monkeypatch, counts, twophase, "select")
    c, g, econ = _repeating_cell(algorithm)
    greedy = algorithm in selection.SNAPSHOT_SELECTORS
    result = run_two_phase(c, g, econ)
    two_phase_selects = counts["profitmax.twophase.select"]
    single, _ = run_single_phase(c, g, econ)
    assert len(draws) == greedy
    # the same bounds array for every read of one build
    assert len({id(b) for b in bounds}) == (algorithm == "single_greedy")
    monkeypatch.undo()
    shared = cell_sample(c, g)
    if not greedy:
        assert shared is None
        # a baseline cell keeps no memo: it selects once per observation
        assert two_phase_selects == 1 + c.phase1_observations
        return
    assert shared is draws[0]
    assert len({(r.already_active, r.newly_active) for r in result.observations}) > 1
    assert any(r.newly_active for r in result.observations)
    # phase one, every phase-two record and the single phase replay on the
    # cell's sample
    selections = [(g, frozenset(), result.phase1), (g, frozenset(), single)] + [
        (*_phase2_view(g, r), r.phase2_selection) for r in result.observations]
    for view, free, outcome in selections:
        budget = outcome.spent + outcome.remaining_budget
        assert select(algorithm, view, econ, budget, c.selection_replications, None, shared,
                      free) == outcome


def test_baseline_cell_draws_no_phase2_sample(monkeypatch):
    _check_cell_draws(monkeypatch, "high_degree")


def test_single_greedy_cell_builds_one_gain_table(monkeypatch):
    _check_cell_draws(monkeypatch, "single_greedy")


def test_double_greedy_cell_draws_one_sample_and_no_table(monkeypatch):
    _check_cell_draws(monkeypatch, "double_greedy")


def test_cell_sample_is_kept_for_the_same_cell_only(monkeypatch):
    # a hit needs the same graph object and an equal config
    c, g, econ = _repeating_cell("double_greedy")
    _, twin, _ = _repeating_cell("double_greedy")
    counts = Counter()
    _count_calls(monkeypatch, counts, twophase, "sample_live_graphs")
    sample = cell_sample(c, g)
    assert cell_sample(replace(c), g) is sample
    assert counts["profitmax.twophase.sample_live_graphs"] == 1
    for other in ((c, twin), (replace(c, master_seed=12), g)):
        cell_sample(c, g)
        counts.clear()
        cell_sample(*other)
        assert counts["profitmax.twophase.sample_live_graphs"] == 1
    # the draw reads no economics: a cell with other benefits gets the same
    # sample back, and single greedy on it selects by those benefits, as on
    # a fresh draw that holds no gain bounds yet
    c = replace(c, algorithm="single_greedy")
    reversed_econ = NodeEconomics(econ.cost, econ.benefit[::-1])
    sample = cell_sample(c, g)
    chosen, _ = run_phase1(c, g, econ)
    counts.clear()
    rechosen, _ = run_phase1(c, g, reversed_econ)
    assert cell_sample(c, g) is sample
    assert counts["profitmax.twophase.sample_live_graphs"] == 0
    fresh = diffusion.sample_live_graphs(g, c.selection_replications,
                                         RandomSource(c.master_seed).stream("snapshots"))
    assert fresh == sample and not fresh.bounds
    assert rechosen == selection.single_greedy(g, reversed_econ, c.budget_phase1, fresh)
    assert rechosen.seeds != chosen.seeds


@pytest.mark.parametrize("next_algorithm", ["double_greedy", "single_greedy", "high_degree"])
def test_cell_sample_releases_the_last_cell_before_drawing(monkeypatch, next_algorithm):
    # cell A's draw, and the gain bounds its selection built on it, are gone
    # once cell B asks, before B's own draw starts
    c, g, econ = _repeating_cell("single_greedy")
    run_phase1(c, g, econ)
    sample = cell_sample(c, g)
    gone = [weakref.ref(sample), weakref.ref(diffusion.gain_bounds(sample, econ.benefit))]
    del sample
    alive_at_draw = []
    draw = twophase.sample_live_graphs

    def watched(*args):
        gc.collect()
        alive_at_draw.append(any(ref() is not None for ref in gone))
        return draw(*args)

    monkeypatch.setattr(twophase, "sample_live_graphs", watched)
    cell_sample(replace(c, algorithm=next_algorithm, master_seed=12), g)
    gc.collect()
    assert all(ref() is None for ref in gone)
    assert not any(alive_at_draw)
    assert len(alive_at_draw) == (next_algorithm != "high_degree")


def test_interleaved_cells_match_cells_run_from_an_empty_slot(monkeypatch):
    _, g, econ = _repeating_cell("double_greedy")
    cells = [cfg(total_budget=12, algorithm=algorithm, master_seed=seed, phase1_observations=6,
                 phase2_runs_per_observation=10, selection_replications=15)
             for algorithm, seed in (("single_greedy", 3), ("double_greedy", 4))]

    def runs(c, fresh):
        out = []
        for run in (run_two_phase, run_single_phase):
            if fresh:
                monkeypatch.setattr(twophase, "_last_cell", None)
            out.append(run(c, g, econ))
        return out

    a, b = cells
    interleaved = [runs(c, False) for c in (a, b, a)]
    assert interleaved == [runs(c, True) for c in (a, b, a)]
    assert interleaved[0] == interleaved[2]


DETERMINISTIC = sorted(set(selection.SELECTORS) - {"random"})


@pytest.mark.parametrize("algorithm", DETERMINISTIC)
def test_certain_chain_reseeds_nothing_the_frontier_reaches(algorithm):
    # phase one seeds 0 and sees {0, 1} active with 1 on the frontier; the
    # frontier reaches 2 for free, so the best reseed is none: 20 - 3 + 10
    c = cfg(algorithm=algorithm)
    result = run_two_phase(c, chain3(p=1.0), ECON3)
    assert result.phase1.seeds == (0,)
    oracle = exact_two_phase_profit(chain3(p=1.0), ECON3, (0,), c.observation_step,
                                    c.budget_phase2 + result.phase1.remaining_budget)
    assert oracle == 27.0
    for rec in result.observations:
        assert rec.newly_active == frozenset({1})
        assert rec.phase2_selection.seeds == ()
        assert rec.total_profit == oracle


def _certain_chains(rnd):
    """Disjoint certain chains, ids ascending along each, one cost for every node."""
    lengths = [rnd.randint(1, 3) for _ in range(rnd.randint(2, 4))]
    arcs, start = [], 0
    for length in lengths:
        arcs += [(u, u + 1, 1.0) for u in range(start, start + length - 1)]
        start += length
    # the last chain ends in one more node, so every id up to it is a node
    g = build_graph(arcs + [(start - 1, start, 1.0)], directed=True)
    cost = rnd.randint(1, 3)
    econ = NodeEconomics((cost,) * (start + 1), tuple(rnd.randint(4, 9) for _ in range(start + 1)))
    return g, econ, cost


@pytest.mark.parametrize("algorithm", DETERMINISTIC)
def test_certain_arcs_phase2_matches_the_oracle_best_reseed(algorithm):
    # with one cost for all, every profitable reseed is an untouched chain's
    # head, and the budget affords them all: each observation's phase-two
    # value is the oracle's best, which never buys what the frontier reaches
    rnd = random.Random(algorithm)
    for trial in range(12):
        g, econ, cost = _certain_chains(rnd)
        total = 12 * cost
        c = cfg(total_budget=total, split_fraction=cost / total,
                observation_step=rnd.randint(1, 3), phase1_observations=2,
                phase2_runs_per_observation=2, algorithm=algorithm, master_seed=trial,
                selection_replications=3)
        result = run_two_phase(c, g, econ)
        assert len(result.phase1.seeds) == 1
        for rec in result.observations:
            oracle = exact_two_phase_profit(g, econ, result.phase1.seeds, c.observation_step,
                                            rec.phase2_budget)
            assert rec.total_profit == pytest.approx(oracle), (trial, rec)


def _oracle_instance(rnd):
    """At most 10 nodes and 12 arcs, with costs that make the budget bind."""
    n = rnd.randint(3, 10)
    directed = rnd.random() < 0.7
    # an undirected edge is stored as two arcs
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = rnd.sample(pairs, rnd.randint(2, min(len(pairs), 12 if directed else 6)))
    g = build_graph([(u, v, rnd.choice([0.3, 0.5, 0.8])) for u, v in edges], directed)
    size = g.base_node_count
    econ = NodeEconomics(tuple(rnd.randint(1, 4) for _ in range(size)),
                         tuple(rnd.randint(2, 9) for _ in range(size)))
    return g, econ


@pytest.mark.parametrize("algorithm", sorted(selection.SELECTORS))
def test_two_phase_mean_never_beats_the_oracle(algorithm):
    # the oracle takes the best reseed for every observation, so it bounds
    # every policy's expected two-phase profit from above: the protocol's
    # mean over N observations may exceed it by sampling noise only
    rnd = random.Random(f"oracle-{algorithm}")
    for trial in range(6):
        g, econ = _oracle_instance(rnd)
        c = cfg(total_budget=rnd.randint(3, 8), observation_step=rnd.randint(1, 2),
                phase1_observations=40, phase2_runs_per_observation=20,
                algorithm=algorithm, master_seed=trial, selection_replications=20)
        result = run_two_phase(c, g, econ)
        oracle = exact_two_phase_profit(g, econ, result.phase1.seeds, c.observation_step,
                                        c.budget_phase2 + result.phase1.remaining_budget)
        se = result.std_total_profit / c.phase1_observations ** 0.5
        slack = 3 * se if se > 0 else 1e-9
        assert result.mean_total_profit <= oracle + slack, (trial, oracle, se)


def test_single_phase_examples():
    outcome, est = run_single_phase(cfg(total_budget=0), chain3(), ECON3)
    assert outcome.seeds == () and est.mean == 0.0

    outcome, est = run_single_phase(cfg(), chain3(p=1.0), ECON3)
    assert est.mean == exact_profit(chain3(p=1.0), ECON3, outcome.seeds)
    assert est.std_error == 0.0


def test_exact_two_phase_oracle_hand_computed():
    # chain 0->1->2, p=0.5, b=10, C=3, seeds {0}, d=1, phase-two budget 6:
    # frontier observed  (p=.5): interior benefit 20 - 3, best reseed {2} nets 7 -> 24
    # frontier missed    (p=.5): benefit 10 - 3, best reseed {1,2} nets 14 -> 21
    g = build_graph([(0, 1, 0.5), (1, 2, 0.5)], directed=True)
    value = exact_two_phase_profit(g, ECON3, [0], 1, 6)
    assert value == pytest.approx(0.5 * 24 + 0.5 * 21)


def test_exact_two_phase_oracle_no_budget_matches_plain_profit_at_fixpoint():
    # with no phase-two budget and the cascade fully observed, the objective
    # collapses to the plain expected profit of the phase-one seeds
    g = build_graph([(0, 1, 0.7), (1, 2, 0.4)], directed=True)
    econ = NodeEconomics((2, 2, 2), (5, 5, 5))
    assert exact_two_phase_profit(g, econ, [0], 5, 0) == pytest.approx(
        exact_profit(g, econ, [0]))


def test_exact_two_phase_oracle_refuses_big_graphs():
    g = build_graph([(i, i + 1, 0.5) for i in range(25)], directed=True)
    econ = NodeEconomics((1,) * 26, (1,) * 26)
    with pytest.raises(ValueError):
        exact_two_phase_profit(g, econ, [0], 1, 3)
    # certain arcs: seed 0 always activates 1, which leaves 17 of 19 nodes
    # to brute-force in phase two
    g = build_graph([(2 * k, 2 * k + 1, 1.0) for k in range(9)] + [(17, 18, 1.0)],
                    directed=True)
    econ = NodeEconomics((1,) * 19, (1,) * 19)
    with pytest.raises(ValueError, match="too many phase-two candidates"):
        exact_two_phase_profit(g, econ, [0], 1, 3)
