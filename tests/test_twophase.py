import pytest

from profitmax.diffusion import PartialObservation
from profitmax.graph import NodeEconomics, build_graph
from profitmax.loader import AttributeSpec, generate_attributes, preferential_attachment_graph
from profitmax.profit import exact_profit
from profitmax.twophase import (
    PhaseConfig,
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
    with pytest.raises(ValueError, match="selection replications"):
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
    outcome, observations = run_phase1(cfg(total_budget=0), chain3(), ECON3)
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
    rec = run_phase2(cfg(), chain3(), ECON3, outcome, obs)
    assert rec.phase2_selection.seeds == ()
    assert rec.phase2_profit.mean == 0.0


def test_phase2_dead_phase_is_zero():
    c = cfg(total_budget=0)
    outcome, _ = run_phase1(c, chain3(), ECON3)
    obs = PartialObservation(frozenset(), frozenset())
    rec = run_phase2(c, chain3(), ECON3, outcome, obs)
    assert rec.phase2_selection.seeds == ()
    assert rec.phase2_profit.mean == 0.0


def test_phase2_frontier_carries_cascade_for_free():
    # frontier {0} on a certain chain delivers the benefit of 1 and 2 at no cost
    c = cfg(total_budget=0)
    outcome, _ = run_phase1(c, chain3(p=1.0), ECON3)
    obs = PartialObservation(frozenset({0}), frozenset({0}))
    rec = run_phase2(c, chain3(p=1.0), ECON3, outcome, obs)
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
