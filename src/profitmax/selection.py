"""Budgeted seed-set selectors.

The two greedy selectors pick by profit gain per unit cost; the four baselines
order candidates by randomness, degree, clustering coefficient, or discounted
degree.  Every selector works on whatever (possibly restricted) graph it is
handed, never picks a node twice, and returns an audit trace of each examined
candidate.

The greedy selectors sample ``cfg.replications`` live graphs of their graph
once per call, from a stream derived from their own source, and score every
candidate exactly on that sample: benefit is weighted coverage, so a gain is
coverage gained minus the node's cost.  Single greedy evaluates lazily (CELF):
a ratio computed in an earlier round bounds the current one from above, so
only candidates that reach the top of the queue are evaluated again, and the
seeds equal those of the eager loop on the same sample.  Its trace holds one
``evaluated`` entry per ratio computed, ``unaffordable`` when a candidate
leaves the pool for good, and the round's ``accepted`` node or the final
``rejected_gain`` one.  High degree, clustering coefficient and single
discount share one scored scan, whose gain gate calls
:func:`~profitmax.profit.marginal_profit_gain`; its two estimates share one
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from math import inf

from .diffusion import sample_live_graphs
from .graph import NodeEconomics, SocialGraph, clustering_coefficients, degree, seed_cost
from .profit import (EstimatorConfig, SnapshotCoverage, SnapshotReachCounts, full_reach,
                     marginal_profit_gain)
# unused here, but the benchmark's tracer patches these names on this module
from .graph import clustering_coefficient  # noqa: F401
from .profit import estimate_profit  # noqa: F401

__all__ = [
    "TraceEntry",
    "SelectionOutcome",
    "single_greedy",
    "double_greedy",
    "baseline_random",
    "baseline_high_degree",
    "baseline_clustering_coefficient",
    "baseline_single_discount",
    "replay_single_greedy",
    "SELECTORS",
    "select",
]


@dataclass(frozen=True)
class TraceEntry:
    round: int
    node: int
    decision: str
    ratio: float = None
    remove_ratio: float = None


@dataclass(frozen=True)
class SelectionOutcome:
    seeds: tuple
    spent: int
    remaining_budget: int
    trace: tuple


def _outcome(econ, budget, selected, trace) -> SelectionOutcome:
    spent = seed_cost(econ, selected)
    return SelectionOutcome(tuple(sorted(selected)), spent, budget - spent, tuple(trace))


def _check_budget(g, econ, budget):
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    econ.check_covers(g)


def _snapshots(g, cfg, source):
    return sample_live_graphs(g, cfg.replications, source.stream("snapshots"))


def single_greedy(g: SocialGraph, econ: NodeEconomics, budget: int,
                  cfg: EstimatorConfig, source) -> SelectionOutcome:
    """Iterated best gain-per-cost selection until gains turn non-positive.

    Each round accepts the affordable candidate with the highest ratio
    (coverage gain / replications - cost) / cost on the sample, ties to the
    lowest id.  Candidates whose cost exceeds the remaining budget can never
    become affordable again and leave the pool permanently, which also
    guarantees termination.
    """
    _check_budget(g, econ, budget)
    cost = econ.cost
    replications = cfg.replications
    cover = SnapshotCoverage(_snapshots(g, cfg, source), econ.benefit)

    def ratio(u):
        return (cover.gain(u) / replications - cost[u]) / cost[u]

    # no ratio is known yet, so round 0 evaluates every node in id order; a
    # sorted list is already a heap
    queue = [(-inf, u, -1) for u in g.nodes]
    trace = []
    selected = []
    remaining = budget
    round_no = 0
    while queue:
        neg_ratio, u, evaluated_in = queue[0]
        if cost[u] > remaining:
            heappop(queue)
            trace.append(TraceEntry(round_no, u, "unaffordable"))
        elif evaluated_in != round_no:
            r = ratio(u)
            trace.append(TraceEntry(round_no, u, "evaluated", r))
            heapreplace(queue, (-r, u, round_no))
        elif neg_ratio >= 0.0:
            trace.append(TraceEntry(round_no, u, "rejected_gain", -neg_ratio))
            break
        else:
            heappop(queue)
            trace.append(TraceEntry(round_no, u, "accepted", -neg_ratio))
            cover.add(u)
            selected.append(u)
            remaining -= cost[u]
            round_no += 1
    return _outcome(econ, budget, selected, trace)


def replay_single_greedy(g: SocialGraph, econ: NodeEconomics, cfg: EstimatorConfig,
                         source, outcome: SelectionOutcome) -> bool:
    """Re-run single greedy from ``source`` and compare with a recorded outcome.

    True when the seeds, the spend and every trace entry (node, decision and
    ratio) match exactly.
    """
    budget = outcome.spent + outcome.remaining_budget
    return single_greedy(g, econ, budget, cfg, source) == outcome


def double_greedy(g: SocialGraph, econ: NodeEconomics, budget: int,
                  cfg: EstimatorConfig, source) -> SelectionOutcome:
    """Single pass keeping a growing set S and a shrinking set T; ends with S == T.

    For each node the grow-side ratio is its profit gain when added to S, and
    the shrink-side ratio (negated) its profit change when removed from T, both
    per unit cost and exact on the sample.  The node joins S when the grow side
    wins and its cost still fits the budget; otherwise it leaves T.
    """
    _check_budget(g, econ, budget)
    cost = econ.cost
    nodes = g.nodes
    replications = cfg.replications
    sample = _snapshots(g, cfg, source)
    grow = SnapshotCoverage(sample, econ.benefit)
    shrink = SnapshotReachCounts(sample, econ.benefit, nodes)
    selected = []
    remaining = budget
    trace = []
    for idx, u in enumerate(nodes):
        c = cost[u]
        # one walk of u's reach serves the grow-side gain and either update
        reached = full_reach(sample, u)
        add_ratio = (grow.gain(u, reached) / replications - c) / c
        remove_ratio = (shrink.loss(u) / replications - c) / c
        if add_ratio >= remove_ratio and c <= remaining:
            grow.add(u, reached)
            selected.append(u)
            remaining -= c
            decision = "added"
        else:
            shrink.remove(u, reached)
            decision = "dropped_budget" if add_ratio >= remove_ratio else "dropped_ratio"
        trace.append(TraceEntry(idx, u, decision, add_ratio, remove_ratio))
    assert [u for u in nodes if shrink.member[u]] == selected, \
        "grow and shrink sets must coincide at termination"
    return _outcome(econ, budget, selected, trace)


def baseline_random(g: SocialGraph, econ: NodeEconomics, budget: int, source) -> SelectionOutcome:
    """Uniform random order, taking every node that still fits the budget."""
    _check_budget(g, econ, budget)
    cost = econ.cost
    order = g.nodes
    source.stream("order").shuffle(order)
    selected = []
    remaining = budget
    trace = []
    for i, u in enumerate(order):
        if cost[u] <= remaining:
            selected.append(u)
            remaining -= cost[u]
            trace.append(TraceEntry(i, u, "accepted"))
        else:
            trace.append(TraceEntry(i, u, "unaffordable"))
    return _outcome(econ, budget, selected, trace)


def _scored_scan(g, econ, budget, cfg, source, order, on_accept=None) -> SelectionOutcome:
    # shared scan for the score-ordered baselines: take a node when it fits
    # the budget and its estimated profit gain is non-negative; ``on_accept``
    # hears of each taken node before ``order`` yields the next one
    cost = econ.cost
    selected = []
    remaining = budget
    trace = []
    for i, u in enumerate(order):
        if cost[u] > remaining:
            trace.append(TraceEntry(i, u, "unaffordable"))
            continue
        gain = marginal_profit_gain(g, econ, selected, u, cfg, source.child("evaluate", i))
        ratio = gain / cost[u]
        if gain >= 0.0:
            selected.append(u)
            remaining -= cost[u]
            trace.append(TraceEntry(i, u, "accepted", ratio))
            if on_accept is not None:
                on_accept(u)
        else:
            trace.append(TraceEntry(i, u, "rejected_gain", ratio))
    return _outcome(econ, budget, selected, trace)


def baseline_high_degree(g: SocialGraph, econ: NodeEconomics, budget: int,
                         cfg: EstimatorConfig, source) -> SelectionOutcome:
    """Descending-degree scan with non-negative-gain and budget gates."""
    _check_budget(g, econ, budget)
    order = sorted(g.nodes, key=lambda u: (-degree(g, u), u))
    return _scored_scan(g, econ, budget, cfg, source, order)


def baseline_clustering_coefficient(g: SocialGraph, econ: NodeEconomics, budget: int,
                                    cfg: EstimatorConfig, source) -> SelectionOutcome:
    """Descending clustering-coefficient scan with the same gates as high degree."""
    _check_budget(g, econ, budget)
    coefficient = clustering_coefficients(g)
    order = sorted(g.nodes, key=lambda u: (-coefficient[u], u))
    return _scored_scan(g, econ, budget, cfg, source, order)


def baseline_single_discount(g: SocialGraph, econ: NodeEconomics, budget: int,
                             cfg: EstimatorConfig, source) -> SelectionOutcome:
    """Degree scan where each selection discounts its neighbors' degrees by one.

    The next node is the unexamined one of highest effective degree, ties to
    the lowest id, with the same gates as high degree (the SingleDiscount
    heuristic of Chen, Wang & Yang, KDD 2009).
    """
    _check_budget(g, econ, budget)
    effective = {u: degree(g, u) for u in g.nodes}
    # one heap entry per unexamined node; effective degrees only go down, so a
    # stored degree is never below the current one and a top entry whose degree
    # is current is the true maximum; a stale one is pushed back, updated
    queue = [(-d, u) for u, d in effective.items()]
    heapify(queue)

    def order():
        while queue:
            neg_degree, u = heappop(queue)
            if -neg_degree == effective[u]:
                yield u
            else:
                heappush(queue, (-effective[u], u))

    def discount(u):
        for v, _ in g.out_arcs(u):
            effective[v] -= 1

    return _scored_scan(g, econ, budget, cfg, source, order(), discount)


SELECTORS = {
    "single_greedy": single_greedy,
    "double_greedy": double_greedy,
    "random": lambda g, econ, budget, cfg, source: baseline_random(g, econ, budget, source),
    "high_degree": baseline_high_degree,
    "clustering_coefficient": baseline_clustering_coefficient,
    "single_discount": baseline_single_discount,
}


def select(name: str, g: SocialGraph, econ: NodeEconomics, budget: int,
           cfg: EstimatorConfig, source) -> SelectionOutcome:
    """Dispatch to a selector by registry name."""
    try:
        selector = SELECTORS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(sorted(SELECTORS))}")
    return selector(g, econ, budget, cfg, source)
