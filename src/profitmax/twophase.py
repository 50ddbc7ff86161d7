"""Two-phase seeding protocol: select, observe, reseed on the residual graph.

Phase one selects seeds under the first budget slice and watches the cascade
for a fixed number of steps.  Each observation yields the set of nodes already
active and the frontier activated exactly at the horizon.  Phase two removes
the already-active interior from the graph, rolls unspent budget over, selects
fresh seeds among untouched nodes, and lets them diffuse together with the
observed frontier (which costs nothing and earns nothing — its members were
already counted in phase one).  Selection sees the frontier as the
evaluation does: as free seeds, so it buys nothing the frontier reaches.
Every selection of a greedy cell, in phase one, phase two and the single
phase, scores on one sample of live graphs of the base graph,
:func:`cell_sample`; a phase-two selection blocks its view's removed nodes
on it and covers its frontier's reach, so it depends only on its
observation, and identical observations select once.  Each run asks
:func:`cell_sample` for the sample itself; the module keeps one cell's draw
at a time and releases it when another cell asks.

The module also carries an exact oracle for the full two-phase objective on
enumerable instances: every live graph is expanded, grouped by the arc states
revealed up to the observation step, and the best affordable phase-two seed
set is brute-forced per observation group.  The objective-shape tests (sign,
monotonicity, modularity, additivity) all run against this oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import fsum, sqrt

from .diffusion import (_check_seeds, _live_worlds, observe_until, sample_live_graphs,
                        PartialObservation)
from .graph import NodeEconomics, SocialGraph, exclude_nodes, seed_cost
from .profit import ProfitEstimate, estimate_profit
from .rng import RandomSource
from .selection import SELECTORS, SNAPSHOT_SELECTORS, SelectionOutcome, select

__all__ = [
    "PhaseConfig",
    "ObservationRecord",
    "TwoPhaseResult",
    "cell_sample",
    "run_phase1",
    "run_phase2",
    "run_two_phase",
    "run_single_phase",
    "exact_two_phase_profit",
]


@dataclass(frozen=True)
class PhaseConfig:
    """Knobs of one two-phase experiment cell."""

    total_budget: int
    split_fraction: float = 0.6
    observation_step: int = 3
    phase1_observations: int = 100
    phase2_runs_per_observation: int = 100
    algorithm: str = "single_greedy"
    master_seed: int = 0
    selection_replications: int = 100

    def __post_init__(self):
        if self.total_budget < 0:
            raise ValueError("total budget must be >= 0")
        if not 0.0 <= self.split_fraction <= 1.0:
            raise ValueError("split fraction must lie in [0, 1]")
        if self.observation_step < 1:
            raise ValueError("observation step must be >= 1")
        if self.phase1_observations < 1 or self.phase2_runs_per_observation < 1:
            raise ValueError("replication counts must be >= 1")
        if self.selection_replications < 1:
            raise ValueError(
                f"selection_replications must be >= 1, got {self.selection_replications}")
        if self.algorithm not in SELECTORS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; known: {', '.join(sorted(SELECTORS))}")

    @property
    def budget_phase1(self) -> int:
        return int(round(self.split_fraction * self.total_budget))

    @property
    def budget_phase2(self) -> int:
        return self.total_budget - self.budget_phase1


@dataclass(frozen=True)
class ObservationRecord:
    """Phase-two outcome for one phase-one observation."""

    index: int
    already_active: frozenset
    newly_active: frozenset
    phase2_selection: SelectionOutcome
    phase2_budget: int
    phase2_profit: ProfitEstimate
    total_profit: float


@dataclass(frozen=True)
class TwoPhaseResult:
    phase1: SelectionOutcome
    observations: tuple
    best_index: int
    best_total_profit: float
    mean_total_profit: float
    std_total_profit: float
    total_seed_count: int


# the last cell's draw: (cfg, g, what cell_sample returned)
_last_cell = None


def cell_sample(cfg: PhaseConfig, g: SocialGraph):
    """What every selection of the cell scores on: R live graphs of ``g``.

    Drawn from the cell's ``snapshots`` stream as a ``LiveSample`` for a cell
    whose algorithm is in ``SNAPSHOT_SELECTORS``; None for a baseline cell,
    which draws nothing.  The draw depends on no economics: single greedy's
    gain bounds are built on the sample by the first selection that reads
    them, for its benefits, and go with it.  The module keeps one cell's
    draw at a time: a call with the same ``g`` object and an equal ``cfg``
    returns it again, and any other call releases it before drawing its own.
    """
    global _last_cell
    last = _last_cell
    if last is not None and last[1] is g and last[0] == cfg:
        return last[2]
    _last_cell = last = None  # the old draw goes before the new one is made
    drawn = None
    if cfg.algorithm in SNAPSHOT_SELECTORS:
        drawn = sample_live_graphs(g, cfg.selection_replications,
                                   RandomSource(cfg.master_seed).stream("snapshots"))
    _last_cell = (cfg, g, drawn)
    return drawn


def run_phase1(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics):
    """Select phase-one seeds and draw the independent observations.

    Selects on the cell's :func:`cell_sample`.  Returns the selection outcome
    and ``cfg.phase1_observations`` partial observations of independent
    cascades from those seeds, each watched up to the observation step.
    """
    source = RandomSource(cfg.master_seed)
    outcome = select(cfg.algorithm, g, econ, cfg.budget_phase1, cfg.selection_replications,
                     source.child("phase1-select"), cell_sample(cfg, g))
    observations = [
        observe_until(g, outcome.seeds, cfg.observation_step, source.stream("phase1-observe", i))
        for i in range(cfg.phase1_observations)
    ]
    return outcome, observations


def run_phase2(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics,
               phase1_outcome: SelectionOutcome, obs: PartialObservation,
               index: int = 0, memo=None) -> ObservationRecord:
    """Reseed the residual graph for one observation and evaluate its profit.

    Selection and evaluation both happen on the graph without the
    already-active interior, with the observed frontier as free seeds, which
    pay and earn nothing: the selectors pick among untouched nodes only, and
    only untouched nodes earn.  Unspent phase-one budget rolls over.
    Selects on the cell's :func:`cell_sample`.  ``memo`` maps an
    observation's (already active, newly active) pair to the outcome selected
    for it; only a cell with a sample consults it, since a baseline selects
    from its observation's own stream.
    """
    already, newly = obs.already_active, obs.newly_active
    if not newly <= already:
        raise ValueError("invalid observation: frontier not contained in active set")
    budget = cfg.budget_phase2 + phase1_outcome.remaining_budget
    source = RandomSource(cfg.master_seed).child("phase2", index)
    view = exclude_nodes(g, already - newly)
    sample = cell_sample(cfg, g)
    if memo is None or sample is None:
        memo = {}
    key = (already, newly)
    outcome = memo.get(key)
    if outcome is None:
        outcome = memo[key] = select(cfg.algorithm, view, econ, budget,
                                     cfg.selection_replications, source.child("select"),
                                     sample, newly)
    assert outcome.spent <= budget
    est = estimate_profit(view, econ, outcome.seeds, cfg.phase2_runs_per_observation,
                          source.stream("evaluate"), free_seeds=newly)
    phase1_component = fsum(econ.benefit[v] for v in sorted(already)) - phase1_outcome.spent
    return ObservationRecord(
        index=index,
        already_active=already,
        newly_active=newly,
        phase2_selection=outcome,
        phase2_budget=budget,
        phase2_profit=est,
        total_profit=phase1_component + est.mean,
    )


def run_two_phase(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics) -> TwoPhaseResult:
    """Full protocol: phase one, all observations, phase two per observation.

    The headline aggregate takes the maximum total profit over observations
    (protocol convention); the mean and standard deviation across observations
    are reported alongside since the objective is an expectation.  A greedy
    cell selects on its :func:`cell_sample` in phase one and once per distinct
    observation; every observation is still evaluated on its own stream.
    """
    phase1_outcome, observations = run_phase1(cfg, g, econ)
    memo = {}
    records = [
        run_phase2(cfg, g, econ, phase1_outcome, obs, i, memo)
        for i, obs in enumerate(observations)
    ]
    totals = [rec.total_profit for rec in records]
    best_index = max(range(len(totals)), key=lambda i: (totals[i], -i))
    mean_total = fsum(totals) / len(totals)
    if len(totals) > 1:
        std_total = sqrt(fsum((t - mean_total) ** 2 for t in totals) / (len(totals) - 1))
    else:
        std_total = 0.0
    best = records[best_index]
    combined = set(phase1_outcome.seeds) | set(best.phase2_selection.seeds)
    return TwoPhaseResult(
        phase1=phase1_outcome,
        observations=tuple(records),
        best_index=best_index,
        best_total_profit=totals[best_index],
        mean_total_profit=mean_total,
        std_total_profit=std_total,
        total_seed_count=len(combined),
    )


def run_single_phase(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics):
    """One selection with the whole budget and a fixpoint profit estimate.

    The estimate uses observations x runs-per-observation replications so the
    comparison against the two-phase aggregate rests on similar sample sizes.
    A greedy selection scores on the cell's :func:`cell_sample`, the same
    draw :func:`run_two_phase` selects on.
    """
    source = RandomSource(cfg.master_seed)
    outcome = select(cfg.algorithm, g, econ, cfg.total_budget, cfg.selection_replications,
                     source.child("single-phase-select"), cell_sample(cfg, g))
    replications = cfg.phase1_observations * cfg.phase2_runs_per_observation
    est = estimate_profit(g, econ, outcome.seeds, replications,
                          source.stream("single-phase-evaluate"))
    return outcome, est


# -- exact oracle for the two-phase objective ---------------------------------


def exact_two_phase_profit(g: SocialGraph, econ: NodeEconomics, phase1_seeds,
                           observation_step: int, budget_phase2: int) -> float:
    """Exact expected two-phase profit of a phase-one seed set.

    Enumerates every live graph, groups worlds by what the observation step
    reveals, and per group brute-forces the affordable phase-two seed set that
    maximizes conditional expected profit over untouched nodes.  Worth it only
    on tiny instances; refuses anything above ``ENUMERATION_LIMIT`` arcs.
    """
    econ.check_covers(g)
    if observation_step < 0:
        raise ValueError("observation step must be >= 0")
    if budget_phase2 < 0:
        raise ValueError("phase-two budget must be >= 0")
    seeds = _check_seeds(g, phase1_seeds)
    index, worlds = _live_worlds(g)
    nodes = g.nodes
    cost, benefit = econ.cost, econ.benefit
    phase1_cost = seed_cost(econ, seeds)

    groups = {}
    for mask, prob in worlds:
        if prob == 0.0:
            continue
        active, frontier, examined = index.observe(mask, seeds, observation_step)
        entry = groups.get(examined)
        if entry is None:
            groups[examined] = entry = (frozenset(active), frozenset(frontier), [])
        entry[2].append((mask, prob))

    objective_terms = []
    for already, frontier, members in groups.values():
        observation_prob = fsum(p for _, p in members)
        candidates = [u for u in nodes if u not in already]
        if len(candidates) > 16:
            raise ValueError("too many phase-two candidates for exact enumeration")
        blocked = already - frontier
        best = None
        for size in range(len(candidates) + 1):
            for combo in combinations(candidates, size):
                combo_cost = sum(cost[u] for u in combo)
                if combo_cost > budget_phase2:
                    continue
                reseed = sorted(set(combo) | frontier)
                gained = []
                for mask, prob in members:
                    reach = index.reach(mask, reseed, blocked)
                    gained.append(prob * fsum(benefit[v] for v in reach if v not in already))
                value = fsum(gained) / observation_prob - combo_cost
                if best is None or value > best:
                    best = value
        phase1_component = fsum(benefit[v] for v in sorted(already)) - phase1_cost
        objective_terms.append(observation_prob * (phase1_component + best))
    return fsum(objective_terms)
