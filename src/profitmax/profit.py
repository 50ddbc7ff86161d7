"""Influence, benefit, and profit estimation: Monte Carlo and exact.

Benefit of a seed set is the expected sum of benefit values over all nodes the
cascade reaches (seeds included); profit subtracts the incentive cost of the
priced seeds.  Every quantity comes in two flavors: a Monte Carlo estimate
with standard error, and an exact expectation by live-graph enumeration for
small graphs.  The exact route exists to check the sampled one and is never
used inside selection loops.

``free_seeds`` are nodes that start the cascade without being paid for; the
phase-two protocol uses them for organically activated frontiers.  A
``universe`` restricts which nodes' benefits are counted, without changing
diffusion dynamics.

The greedy selectors estimate on a fixed sample of live graphs instead
(:class:`SnapshotCoverage`, :class:`SnapshotReachCounts`): there benefit is
exact weighted coverage, so a seed set's mean profit over the sample is a
submodular coverage term minus a modular cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt

from .diffusion import _check_seeds, _gain_samples, _live_worlds
from .graph import NodeEconomics, SocialGraph, seed_cost

__all__ = [
    "ProfitEstimate",
    "EstimatorConfig",
    "estimate_influence",
    "estimate_benefit",
    "estimate_profit",
    "exact_benefit",
    "exact_profit",
    "marginal_profit_gain",
    "SnapshotCoverage",
    "SnapshotReachCounts",
]


@dataclass(frozen=True)
class ProfitEstimate:
    """Monte Carlo estimate with its standard error and replication count."""

    mean: float
    std_error: float
    replications: int


@dataclass(frozen=True)
class EstimatorConfig:
    replications: int = 100

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


def _value_table(g: SocialGraph, econ: NodeEconomics, universe):
    if universe is None:
        return [float(b) for b in econ.benefit]
    members = set(universe)
    for u in members:
        if not 0 <= u < g.base_node_count:
            raise ValueError(f"universe node {u!r} is outside the graph")
    return [float(b) if u in members else 0.0 for u, b in enumerate(econ.benefit)]


def _initial_active(g, seeds, free_seeds):
    seed_list = _check_seeds(g, seeds)
    free_list = _check_seeds(g, free_seeds)
    return seed_list, sorted(set(seed_list) | set(free_list))


def _from_samples(const: float, samples) -> ProfitEstimate:
    r = len(samples)
    mean_extra = fsum(samples) / r
    if r > 1:
        var = fsum((x - mean_extra) ** 2 for x in samples) / (r - 1)
        se = sqrt(var / r)
    else:
        se = 0.0
    return ProfitEstimate(const + mean_extra, se, r)


def estimate_influence(g: SocialGraph, seeds, cfg: EstimatorConfig, rng) -> ProfitEstimate:
    """Expected number of nodes active at fixpoint; exactly 0 for no seeds."""
    _, initial = _initial_active(g, seeds, ())
    ones = [1.0] * g.base_node_count
    samples = _gain_samples(g, ones, initial, cfg.replications, rng)
    return _from_samples(float(len(initial)), samples)


def estimate_benefit(g: SocialGraph, econ: NodeEconomics, seeds, cfg: EstimatorConfig,
                     rng, universe=None, free_seeds=()) -> ProfitEstimate:
    """Expected benefit mass reached by the cascade, counted inside ``universe``."""
    econ.check_covers(g)
    _, initial = _initial_active(g, seeds, free_seeds)
    value = _value_table(g, econ, universe)
    const = fsum(value[s] for s in initial)
    samples = _gain_samples(g, value, initial, cfg.replications, rng)
    return _from_samples(const, samples)


def estimate_profit(g: SocialGraph, econ: NodeEconomics, seeds, cfg: EstimatorConfig,
                    rng, universe=None, free_seeds=()) -> ProfitEstimate:
    """Benefit estimate minus the cost of the priced seeds.

    Only ``seeds`` are paid for; ``free_seeds`` diffuse for free.  The mean
    satisfies ``estimate_profit(...).mean + seed_cost(econ, seeds) ==
    estimate_benefit(...).mean`` for identical streams.
    """
    econ.check_covers(g)
    seed_list, initial = _initial_active(g, seeds, free_seeds)
    value = _value_table(g, econ, universe)
    const = fsum(value[s] for s in initial) - seed_cost(econ, seed_list)
    samples = _gain_samples(g, value, initial, cfg.replications, rng)
    return _from_samples(const, samples)


def exact_benefit(g: SocialGraph, econ: NodeEconomics, seeds, universe=None,
                  free_seeds=()) -> float:
    """Exact expected benefit by summing over every live graph.

    Refuses graphs above ``ENUMERATION_LIMIT`` arcs; this is the oracle side
    of the estimator checks, not a production path.
    """
    econ.check_covers(g)
    _, initial = _initial_active(g, seeds, free_seeds)
    index, worlds = _live_worlds(g)
    if not initial:
        return 0.0
    value = _value_table(g, econ, universe)
    return fsum(prob * fsum(value[v] for v in index.reach(mask, initial))
                for mask, prob in worlds)


def exact_profit(g: SocialGraph, econ: NodeEconomics, seeds, universe=None,
                 free_seeds=()) -> float:
    """Exact expected profit: enumerated benefit minus priced seed cost."""
    seed_list = _check_seeds(g, seeds)
    benefit = exact_benefit(g, econ, seed_list, universe, free_seeds)
    return benefit - seed_cost(econ, seed_list)


def marginal_profit_gain(g: SocialGraph, econ: NodeEconomics, seeds, u, cfg: EstimatorConfig,
                         source, universe=None, free_seeds=()) -> float:
    """Signed profit delta from adding ``u`` to ``seeds``.

    ``source`` is a :class:`~profitmax.rng.RandomSource`; both profit terms
    re-derive its one stream (common random numbers), so shared simulation
    noise cancels.  Negative gains are returned as-is; selectors apply their
    own positivity filters.
    """
    seed_list = _check_seeds(g, seeds)
    if u in seed_list:
        raise ValueError(f"node {u!r} is already in the seed set")
    g._require(u)
    rng_with, rng_without = source.generator(), source.generator()
    with_u = estimate_profit(g, econ, seed_list + [u], cfg, rng_with, universe, free_seeds)
    without_u = estimate_profit(g, econ, seed_list, cfg, rng_without, universe, free_seeds)
    return with_u.mean - without_u.mean


# -- snapshot estimator --------------------------------------------------------


def _walk(sample, u, enter):
    """Flat ids reached from ``u``'s kept arcs, in every snapshot of ``sample``.

    ``u``'s own copies are never entered.  ``enter(y)`` decides whether the
    walk enters (and reports) flat id ``y``; a refused node is not expanded.
    """
    R = sample.replications
    offsets, targets = sample.offsets, sample.targets
    x, end = u * R, (u + 1) * R
    seen = set()
    stack = targets[offsets[x]:offsets[end]]
    while stack:
        y = stack.pop()
        if y in seen or x <= y < end or not enter(y):
            continue
        seen.add(y)
        stack.extend(targets[offsets[y]:offsets[y + 1]])
    return seen


class SnapshotCoverage:
    """Benefit that a growing seed set covers on every live graph of a sample.

    ``total / replications - seed_cost`` is the set's mean profit on the
    sample.  A node's gain can only shrink as seeds join, and with integer
    benefits every gain is an exact integer.
    """

    __slots__ = ("sample", "value", "covered", "total")

    def __init__(self, sample, value):
        self.sample = sample
        self.value = value
        self.covered = bytearray(sample.node_count * sample.replications)
        self.total = 0

    def gain(self, u):
        """Benefit, summed over snapshots, that adding ``u`` would newly cover."""
        return self._reach(u, mark=False)

    def add(self, u):
        """Add ``u`` to the seed set; returns its gain."""
        gained = self._reach(u, mark=True)
        self.total += gained
        return gained

    def _reach(self, u, mark):
        R = self.sample.replications
        covered, value = self.covered, self.value
        x = u * R
        # covered sets are closed under reachability: never walk into one
        reached = _walk(self.sample, u, lambda y: not covered[y])
        gained = value[u] * covered[x:x + R].count(0) + sum(value[y // R] for y in reached)
        if mark:
            covered[x:x + R] = b"\x01" * R
            for y in reached:
                covered[y] = 1
        return gained


class SnapshotReachCounts:
    """For each node of each live graph, how many members of a set reach it.

    The set only shrinks.  ``loss(u)`` is the benefit that only member ``u``
    covers, so it equals coverage(T) - coverage(T - {u}) without recomputing
    either.  A stored count leaves out the node's own membership.
    """

    __slots__ = ("sample", "value", "member", "count")

    def __init__(self, sample, value, members):
        self.sample = sample
        self.value = value
        self.member = bytearray(sample.node_count)
        self.count = [0] * (sample.node_count * sample.replications)
        for u in members:
            self.member[u] = 1
            self._spread(u, 1)

    def loss(self, u):
        """Benefit, summed over snapshots, that removing member ``u`` would uncover."""
        R = self.sample.replications
        count, member, value = self.count, self.member, self.value
        x = u * R
        # a node another member reaches, or a member itself, shields everything
        # below it, so the walk stays on nodes that only u reaches
        reached = _walk(self.sample, u, lambda y: count[y] == 1 and not member[y // R])
        return value[u] * count[x:x + R].count(0) + sum(value[y // R] for y in reached)

    def remove(self, u):
        """Take ``u`` out of the set."""
        self.member[u] = 0
        self._spread(u, -1)

    def _spread(self, u, delta):
        count = self.count
        for y in _walk(self.sample, u, lambda y: True):
            count[y] += delta
