"""Two-phase seeding protocol: select, observe, reseed on the residual graph.

Phase one selects seeds under the first budget slice and watches the cascade
for a fixed number of steps.  Each observation yields the set of nodes already
active and the frontier activated exactly at the horizon.  Phase two removes
the already-active interior from the graph, rolls unspent budget over, selects
fresh seeds among untouched nodes, and lets them diffuse together with the
observed frontier (which costs nothing and earns nothing — its members were
already counted in phase one).

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

from .diffusion import _arc_index_out, _check_seeds, observe_until, PartialObservation
from .graph import NodeEconomics, SocialGraph, exclude_nodes, seed_cost
from .profit import EstimatorConfig, ProfitEstimate, estimate_profit
from .rng import RandomSource
from .selection import SELECTORS, SelectionOutcome, select

__all__ = [
    "PhaseConfig",
    "ObservationRecord",
    "TwoPhaseResult",
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
                f"selection replications must be >= 1, got {self.selection_replications}")
        if self.algorithm not in SELECTORS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")

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
    phase1_component: float
    total_profit: float


@dataclass(frozen=True)
class TwoPhaseResult:
    config: PhaseConfig
    phase1: SelectionOutcome
    observations: tuple
    best_index: int
    best_total_profit: float
    mean_total_profit: float
    std_total_profit: float
    total_seed_count: int
    total_cost: int


def _selection_cfg(cfg: PhaseConfig) -> EstimatorConfig:
    return EstimatorConfig(replications=cfg.selection_replications)


def run_phase1(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics):
    """Select phase-one seeds and draw the independent observations.

    Returns the selection outcome and ``cfg.phase1_observations`` partial
    observations of independent cascades from those seeds, each watched up to
    the observation step.
    """
    source = RandomSource(cfg.master_seed)
    outcome = select(cfg.algorithm, g, econ, cfg.budget_phase1,
                     _selection_cfg(cfg), source.child("phase1-select"))
    observations = [
        observe_until(g, outcome.seeds, cfg.observation_step, source.stream("phase1-observe", i))
        for i in range(cfg.phase1_observations)
    ]
    return outcome, observations


def run_phase2(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics,
               phase1_outcome: SelectionOutcome, obs: PartialObservation,
               index: int = 0) -> ObservationRecord:
    """Reseed the residual graph for one observation and evaluate its profit.

    Selection happens on the graph without every already-active node; the
    evaluation keeps the observed frontier as cost-free seeds on the graph
    without the already-active interior, counting benefit only over untouched
    nodes.  Unspent phase-one budget rolls over.
    """
    already, newly = obs.already_active, obs.newly_active
    if not newly <= already:
        raise ValueError("invalid observation: frontier not contained in active set")
    budget = cfg.budget_phase2 + phase1_outcome.remaining_budget
    source = RandomSource(cfg.master_seed).child("phase2", index)
    selection_view = exclude_nodes(g, already)
    outcome = select(cfg.algorithm, selection_view, econ, budget,
                     _selection_cfg(cfg), source.child("select"))
    assert outcome.spent <= budget
    evaluation_view = exclude_nodes(g, already - newly)
    universe = frozenset(selection_view.nodes)
    est = estimate_profit(
        evaluation_view, econ, outcome.seeds,
        EstimatorConfig(replications=cfg.phase2_runs_per_observation),
        source.stream("evaluate"), universe=universe, free_seeds=newly,
    )
    phase1_component = fsum(econ.benefit[v] for v in sorted(already)) - phase1_outcome.spent
    return ObservationRecord(
        index=index,
        already_active=already,
        newly_active=newly,
        phase2_selection=outcome,
        phase2_budget=budget,
        phase2_profit=est,
        phase1_component=phase1_component,
        total_profit=phase1_component + est.mean,
    )


def run_two_phase(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics) -> TwoPhaseResult:
    """Full protocol: phase one, all observations, phase two per observation.

    The headline aggregate takes the maximum total profit over observations
    (protocol convention); the mean and standard deviation across observations
    are reported alongside since the objective is an expectation.
    """
    phase1_outcome, observations = run_phase1(cfg, g, econ)
    records = [
        run_phase2(cfg, g, econ, phase1_outcome, obs, i)
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
        config=cfg,
        phase1=phase1_outcome,
        observations=tuple(records),
        best_index=best_index,
        best_total_profit=totals[best_index],
        mean_total_profit=mean_total,
        std_total_profit=std_total,
        total_seed_count=len(combined),
        total_cost=phase1_outcome.spent + best.phase2_selection.spent,
    )


def run_single_phase(cfg: PhaseConfig, g: SocialGraph, econ: NodeEconomics):
    """One selection with the whole budget and a fixpoint profit estimate.

    The estimate uses observations x runs-per-observation replications so the
    comparison against the two-phase aggregate rests on similar sample sizes.
    """
    source = RandomSource(cfg.master_seed)
    outcome = select(cfg.algorithm, g, econ, cfg.total_budget,
                     _selection_cfg(cfg), source.child("single-phase-select"))
    replications = cfg.phase1_observations * cfg.phase2_runs_per_observation
    est = estimate_profit(g, econ, outcome.seeds, EstimatorConfig(replications=replications),
                          source.stream("single-phase-evaluate"))
    return outcome, est


# -- exact oracle for the two-phase objective ---------------------------------


def _observe_on_mask(out_idx, arc_targets, mask, seeds, d):
    """Deterministic observation of live graph ``mask``: d-step reach from seeds.

    Returns (active set, step-d frontier, tuple of examined (arc, state))
    where examined arcs are those fired by nodes active before the horizon
    toward then-inactive targets — exactly the information the observation
    reveals about the world.
    """
    active = set(seeds)
    newly = sorted(seeds)
    examined = []
    for _ in range(d):
        nxt = []
        for u in newly:
            for i in out_idx[u]:
                v = arc_targets[i]
                if v in active:
                    continue
                bit = mask >> i & 1
                examined.append((i, bit))
                if bit:
                    active.add(v)
                    nxt.append(v)
        newly = sorted(nxt)
        if not newly:
            break
    return active, newly, tuple(examined)


def _mask_reach_blocked(out_idx, arc_targets, mask, seeds, blocked):
    active = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for i in out_idx[u]:
            if mask >> i & 1:
                v = arc_targets[i]
                if v not in active and v not in blocked:
                    active.add(v)
                    stack.append(v)
    return active


def exact_two_phase_profit(g: SocialGraph, econ: NodeEconomics, phase1_seeds,
                           observation_step: int, budget_phase2: int,
                           enumeration_limit: int = 20) -> float:
    """Exact expected two-phase profit of a phase-one seed set.

    Enumerates every live graph, groups worlds by what the observation step
    reveals, and per group brute-forces the affordable phase-two seed set that
    maximizes conditional expected profit over untouched nodes.  Worth it only
    on tiny instances; refuses anything above ``enumeration_limit`` arcs.
    """
    econ.check_covers(g)
    if observation_step < 0:
        raise ValueError("observation step must be >= 0")
    if budget_phase2 < 0:
        raise ValueError("phase-two budget must be >= 0")
    seeds = _check_seeds(g, phase1_seeds)
    arcs = g.arc_list()
    m = len(arcs)
    if m > enumeration_limit:
        raise ValueError(
            f"graph has {m} arcs, above the enumeration limit {enumeration_limit}"
        )
    out_idx = _arc_index_out(arcs, g.base_node_count)
    arc_targets = [v for _, v, _ in arcs]
    arc_probs = [p for _, _, p in arcs]
    nodes = g.nodes
    cost, benefit = econ.cost, econ.benefit
    phase1_cost = seed_cost(econ, seeds)

    groups = {}
    for mask in range(1 << m):
        prob = 1.0
        for i, p in enumerate(arc_probs):
            prob *= p if mask >> i & 1 else 1.0 - p
        if prob == 0.0:
            continue
        active, frontier, examined = _observe_on_mask(out_idx, arc_targets, mask, seeds, observation_step)
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
        frontier_list = sorted(frontier)
        best = None
        for size in range(len(candidates) + 1):
            for combo in combinations(candidates, size):
                combo_cost = sum(cost[u] for u in combo)
                if combo_cost > budget_phase2:
                    continue
                reseed = sorted(set(combo) | frontier)
                gained = []
                for mask, prob in members:
                    if reseed:
                        reach = _mask_reach_blocked(out_idx, arc_targets, mask, reseed, blocked)
                    else:
                        reach = ()
                    gained.append(prob * fsum(benefit[v] for v in reach if v not in already))
                value = fsum(gained) / observation_prob - combo_cost
                if best is None or value > best:
                    best = value
        phase1_component = fsum(benefit[v] for v in sorted(already)) - phase1_cost
        objective_terms.append(observation_prob * (phase1_component + best))
    return fsum(objective_terms)
