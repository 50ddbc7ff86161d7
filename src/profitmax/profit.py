"""Profit accounting: Monte Carlo and exact.

Benefit of a seed set is the expected sum of benefit values over all nodes the
cascade reaches (seeds included); profit subtracts the incentive cost of the
priced seeds.  :func:`estimate_profit` gives a Monte Carlo estimate with
standard error from a plain replication count, on the sampler the graph
picks (see :mod:`profitmax.diffusion`), and :func:`exact_benefit` and
:func:`exact_profit` give exact expectations by live-graph enumeration for
small graphs.  The exact route exists to check the sampled one and is never
used inside selection loops.

``free_seeds`` are nodes that start the cascade without being paid for, and
earn nothing: the phase-two protocol passes its observed frontier, whose
benefit phase one has already counted.  Only the priced seeds and the nodes
the cascade newly reaches earn.

The greedy selectors score on a fixed sample of live graphs instead, by its
weighted coverage; that coverage walks the sample, so it lives beside the
code that draws it, in :mod:`profitmax.diffusion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt

from .diffusion import _check_seeds, _gain_samples, _live_worlds
from .graph import NodeEconomics, SocialGraph, seed_cost

__all__ = [
    "ProfitEstimate",
    "estimate_profit",
    "exact_benefit",
    "exact_profit",
    "marginal_profit_gain",
]


@dataclass(frozen=True)
class ProfitEstimate:
    """Monte Carlo estimate with its standard error and replication count."""

    mean: float
    std_error: float
    replications: int


def _initial_active(g, seeds, free_seeds):
    seed_list = _check_seeds(g, seeds)
    free_list = _check_seeds(g, free_seeds)
    return seed_list, sorted(set(seed_list) | set(free_list))


def estimate_profit(g: SocialGraph, econ: NodeEconomics, seeds, replications: int,
                    rng, free_seeds=()) -> ProfitEstimate:
    """Expected benefit the priced seeds and their cascade earn, less the seeds' cost.

    Only ``seeds`` are paid for and earn; ``free_seeds`` start the cascade,
    pay nothing and earn nothing.  A node in both is a priced seed.  Adding
    ``seed_cost(econ, seeds)`` back to the mean gives the benefit estimate.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    econ.check_covers(g)
    seed_list, initial = _initial_active(g, seeds, free_seeds)
    benefit = econ.benefit
    const = fsum(benefit[s] for s in seed_list) - seed_cost(econ, seed_list)
    samples = _gain_samples(g, benefit, initial, replications, rng)
    r = len(samples)
    mean_extra = fsum(samples) / r
    if r > 1:
        var = fsum((x - mean_extra) ** 2 for x in samples) / (r - 1)
        se = sqrt(var / r)
    else:
        se = 0.0
    return ProfitEstimate(const + mean_extra, se, r)


def exact_benefit(g: SocialGraph, econ: NodeEconomics, seeds, free_seeds=()) -> float:
    """Exact expected benefit by summing over every live graph.

    Each live graph earns the benefit of the reach of seeds and free seeds
    together, less that of the unpaid free seeds.  Refuses graphs above
    ``ENUMERATION_LIMIT`` arcs; this is the oracle side of the estimator
    checks, not a production path.
    """
    econ.check_covers(g)
    seed_list, initial = _initial_active(g, seeds, free_seeds)
    index, worlds = _live_worlds(g)
    if not initial:
        return 0.0
    benefit = econ.benefit
    unpaid = set(initial).difference(seed_list)
    return fsum(prob * fsum(benefit[v] for v in index.reach(mask, initial) - unpaid)
                for mask, prob in worlds)


def exact_profit(g: SocialGraph, econ: NodeEconomics, seeds, free_seeds=()) -> float:
    """Exact expected profit: enumerated benefit minus priced seed cost."""
    seed_list = _check_seeds(g, seeds)
    return exact_benefit(g, econ, seed_list, free_seeds) - seed_cost(econ, seed_list)


def marginal_profit_gain(g: SocialGraph, econ: NodeEconomics, seeds, u, replications: int,
                         source, free_seeds=()) -> float:
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
    with_u = estimate_profit(g, econ, seed_list + [u], replications, rng_with, free_seeds)
    without_u = estimate_profit(g, econ, seed_list, replications, rng_without, free_seeds)
    return with_u.mean - without_u.mean
