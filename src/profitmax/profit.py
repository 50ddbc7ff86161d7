"""Profit estimation: Monte Carlo and exact.

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

The greedy selectors estimate on a fixed sample of live graphs instead, one
per cell (:class:`SnapshotCoverage`): there benefit is exact weighted
coverage, so a seed set's mean profit over the sample is a submodular
coverage term minus a modular cost.  A node is rated and added off one walk:
its gain is ``benefit(u, reach(u))``, and ``add(u, reached)`` covers that
same reach.  For double greedy's shrinking set,
:func:`last_coverers` marks each copy with the last scan position that covers
it, so a scanned node's loss is read off the walk that gives its gain; a
selection builds it only once a gain cannot decide on its own.  A
sample is of a base graph and serves every view of it: a coverage built for
a view starts with the copies of the view's removed nodes covered, and no
walk enters them; one built with free seeds starts with their reach covered.
:func:`gain_bounds` gives every node's gain into an empty seed set on a
sample; blocking can only take reach away, so on any view of the sample that
gain bounds the node's gain from above.  The sample keeps the bounds once
built, so all the selections of a single-greedy cell start their lazy
queues from one build.
"""

from __future__ import annotations

from array import array
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
    "SnapshotCoverage",
    "last_coverers",
    "gain_bounds",
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


# -- snapshot estimator --------------------------------------------------------


def _walk(sample, lo, hi, stop):
    """Flat ids reached from the kept arcs of flat ids ``lo`` to ``hi - 1`` of ``sample``.

    The walk never enters those start ids, nor a flat id ``y`` with a true
    ``stop[y]``; a node not entered is not expanded.  A node's copies
    ``u * R`` to ``(u + 1) * R - 1`` walk its reach in every snapshot.
    """
    offsets, targets = sample.offsets, sample.targets
    seen = set()
    stack = targets[offsets[lo]:offsets[hi]]
    while stack:
        y = stack.pop()
        if y in seen or stop[y] or lo <= y < hi:
            continue
        seen.add(y)
        lo_y, hi_y = offsets[y], offsets[y + 1]
        # at small p most reached copies keep no arc: skip the empty slice
        if lo_y != hi_y:
            stack.extend(targets[lo_y:hi_y])
    return seen


class SnapshotCoverage:
    """Benefit that a growing seed set covers on every live graph of a sample.

    ``sample`` is a sample of the base graph the view ``view`` shares; a
    sample of another base graph is refused.  The view's removed copies
    start out covered, so no walk enters them or counts them: this is the
    one way a sample is restricted to a view.  The ``free`` nodes (an
    observed frontier) are added before any gain is read, so a copy they
    reach earns no seed anything.  A node is rated and added off one walk:
    ``reached = reach(u)``, its gain ``benefit(u, reached)``, then
    ``add(u, reached)``.  Each seed's gain, read before its add, summed and
    divided by ``replications``, less ``seed_cost``, is the set's mean profit
    on the sample.  A node's gain can only shrink as seeds join, and with
    integer benefits every gain is an exact integer.
    """

    __slots__ = ("sample", "value", "covered")

    def __init__(self, sample, value, view: SocialGraph = None, free=()):
        R = sample.replications
        self.sample = sample
        self.value = value
        self.covered = covered = bytearray(sample.node_count * R)
        if view is not None:
            if sample.node_count != view.base_node_count:
                raise ValueError(f"sample of {sample.node_count} nodes does not fit a graph of "
                                 f"{view.base_node_count} nodes")
            for r in view.removed:
                covered[r * R:(r + 1) * R] = b"\x01" * R
        for v in free:
            self.add(v, self.reach(v))

    def add(self, u, reached):
        """Add ``u`` to the seed set: cover its copies and ``reached``, its :meth:`reach`."""
        R = self.sample.replications
        covered = self.covered
        covered[u * R:(u + 1) * R] = b"\x01" * R
        for y in reached:
            covered[y] = 1

    def reach(self, u):
        """The uncovered flat ids that ``u`` reaches, its own copies aside.

        What a seed reaches is covered, and so is everything it reaches in
        turn: the walk never enters a covered copy, and the uncovered part of
        ``u``'s reach is exactly what it finds.  Blocked copies are covered
        but no walk passes through them.
        """
        R = self.sample.replications
        return _walk(self.sample, u * R, (u + 1) * R, self.covered)

    def benefit(self, u, reached, last=None, tag=None):
        """Benefit of ``u``'s uncovered copies and of the flat ids in ``reached``.

        With ``last`` (see :func:`last_coverers`), only the copies whose entry
        there is ``tag`` count.
        """
        R = self.sample.replications
        value = self.value
        x = u * R
        own = self.covered[x:x + R]
        if last is None:
            return value[u] * own.count(0) + sum(value[y // R] for y in reached)
        mine = last[x:x + R]
        if 1 in own:
            mine = [t for c, t in zip(own, mine) if not c]
        return value[u] * mine.count(tag) + sum(value[y // R] for y in reached if last[y] == tag)


def last_coverers(sample, order, blocked) -> list:
    """For each flat id of ``sample``, 2 + the last position in ``order`` that covers it.

    A node covers its own copies and what it reaches around the copies that
    ``blocked`` marks: a view's removed copies, and any already covered.  An
    entry is 1 on a blocked copy and 0 where no node of ``order`` covers the
    copy.  So with S drawn from ``order[:k]``, the set S plus
    ``order[k + 1:]`` covers an unblocked copy exactly when S covers it or
    its entry exceeds ``k + 2``.
    """
    R = sample.replications
    last = list(blocked)
    # from the last node back: a copy already marked is covered by a later
    # node, which then also covers everything below it, so the walk stops
    # there and every copy is marked once, by its latest coverer
    for k in range(len(order) - 1, -1, -1):
        tag = k + 2
        x = order[k] * R
        own = last[x:x + R]
        last[x:x + R] = [t or tag for t in own] if any(own) else [tag] * R
        for y in _walk(sample, x, x + R, last):
            last[y] = tag
    return last


def gain_bounds(sample, value) -> array:
    """Every node's gain into an empty seed set on ``sample``: an upper bound on its views.

    Entry ``u`` is the benefit, summed over snapshots, that ``u`` covers alone
    on the unblocked sample.  A view blocks its removed nodes' copies, which
    can only take reach away, so the entry bounds from above ``u``'s gain
    on ``SnapshotCoverage(sample, value, view)`` for every surviving ``u``
    of every view, and equals it when nothing is blocked.  Built on the
    first call for ``value`` and kept on the sample until a call for other
    benefits replaces it.
    """
    kept = sample.bounds
    if not kept or kept[0] != value:
        empty = SnapshotCoverage(sample, value)
        kept[:] = value, array("q", [empty.benefit(u, empty.reach(u))
                                     for u in range(sample.node_count)])
    return kept[1]
