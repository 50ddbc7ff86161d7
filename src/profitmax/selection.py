"""Budgeted seed-set selectors.

The two greedy selectors pick by profit gain per unit cost; the four baselines
order candidates by randomness, degree, clustering coefficient, or discounted
degree.  Every selector works on whatever (possibly restricted) graph it is
handed, never picks a node twice, and returns an audit trace of each examined
candidate: a :class:`Trace`, which reads as the tuple of its
:class:`TraceEntry` items but keeps them as columns (two 4-byte arrays of
rounds and nodes, a byte of decision each, and a map of the entries that
carry a ratio), written as the scan goes.  ``free`` nodes of that graph
(phase two's observed frontier) seed every cascade at no cost and earn
nothing: the candidates are the graph's other nodes.

The greedy selectors draw nothing.  They are handed a sample of R live graphs
of the base graph their view shares (a cell's, from
:func:`~profitmax.twophase.cell_sample`), start one
:class:`~profitmax.diffusion.SnapshotCoverage` on it that blocks the view's
removed nodes and covers the frontier's reach before rating any candidate,
and score every candidate exactly there: benefit is weighted coverage, so a
gain is coverage gained minus the node's cost.  Both take the sample itself.
Single greedy evaluates lazily (CELF): it reads the sample's
:func:`~profitmax.diffusion.gain_bounds`, whose whole-sample gains bound every
gain on a view from above and are built once per sample, and starts each
candidate's ratio from that bound; a ratio computed in an earlier round
bounds the current one from above too, so only candidates that reach the top
of the queue are evaluated, and the seeds equal those of the eager loop on
the same sample.  Each rated node is walked once, around the cover as it
stands, and the round's accepted node joins the cover off the walk it was
rated with; double greedy too adds a node off the walk that gave its gain.
Its trace holds one
``evaluated`` entry per ratio computed, ``unaffordable`` when a candidate
leaves the pool for good, and the round's ``accepted`` node or the final
``rejected_gain`` one.  Every other selector is one budget-first scan of an
order, with the same decisions but ``evaluated``: a node that does not fit is
``unaffordable`` and never scored, and an affordable one is ``accepted``
unless its selector's gate turns it down (``rejected_gain``).  Random has no
gate; high degree, clustering coefficient and single discount gate on a
non-negative :func:`~profitmax.profit.marginal_profit_gain`, whose two
estimates share one stream and start from the frontier too.  Double greedy
gates on Buchbinder's rule in exact integers, gain + loss >= 2cR for a node
of cost c: a gain of at least 2cR takes the node and one below cR rejects it,
since the loss lies between 0 and the gain, and only a gain in between reads
the loss, off the walk around its growing set's cover that gives the gain.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import NamedTuple

from .diffusion import LiveSample, SnapshotCoverage, gain_bounds, last_coverers
from .graph import NodeEconomics, SocialGraph, clustering_coefficients, degrees, seed_cost
from .profit import marginal_profit_gain
# unused here, but the benchmark's tracer patches these names on this module
from .graph import clustering_coefficient, degree  # noqa: F401
from .profit import estimate_profit  # noqa: F401

__all__ = [
    "TraceEntry",
    "Trace",
    "SelectionOutcome",
    "single_greedy",
    "double_greedy",
    "baseline_random",
    "baseline_high_degree",
    "baseline_clustering_coefficient",
    "baseline_single_discount",
    "SELECTORS",
    "SNAPSHOT_SELECTORS",
    "select",
]


class TraceEntry(NamedTuple):
    round: int
    node: int
    decision: str
    ratio: float = None
    remove_ratio: float = None


# a trace keeps each decision as its index here
_DECISIONS = ("unaffordable", "evaluated", "accepted", "rejected_gain")
_UNAFFORDABLE, _EVALUATED, _ACCEPTED, _REJECTED = range(len(_DECISIONS))


class Trace(Sequence):
    """A read-only sequence of :class:`TraceEntry`, kept as columns.

    Rounds and nodes sit in two ``array("i")``, decisions in a ``bytearray``
    of codes, and ratios in a map from position to ``(ratio, remove_ratio)``
    that holds only the entries with a ratio, so a listed candidate costs
    about 10 bytes.  A ``Trace`` behaves as the tuple of its entries: it
    compares equal to that tuple, hashes and prints like it, and a slice of
    it is one.  ``Trace(entries)`` builds one from entries or their plain
    tuples.
    """

    def __init__(self, entries=()):
        self._rounds, self._nodes = array("i"), array("i")
        self._decisions, self._ratios = bytearray(), {}
        rounds, nodes, decide, ratios = self._writers()
        for i, entry in enumerate(entries):
            round_no, node, decision, *pair = TraceEntry(*entry)
            rounds(round_no), nodes(node), decide(_DECISIONS.index(decision))
            if pair != [None, None]:
                ratios[i] = tuple(pair)

    def _writers(self):
        # what a selector records with, as it scans: each column's append and
        # the ratio map, keyed by the entry's position
        return self._rounds.append, self._nodes.append, self._decisions.append, self._ratios

    def __len__(self):
        return len(self._decisions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        node = self._nodes[index]
        if index < 0:
            index += len(self)
        return TraceEntry(self._rounds[index], node, _DECISIONS[self._decisions[index]],
                          *self._ratios.get(index, ()))

    def __eq__(self, other):
        if isinstance(other, (Trace, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class SelectionOutcome:
    """A selection's seeds, spend and audit trace.

    ``trace`` lists every examined candidate in scan order, one or more
    entries each.  Its nodes and rounds sit in 4-byte arrays (``array("i")``),
    so it holds ids and rounds up to
    :data:`~profitmax.diffusion.SAMPLE_INT_MAX`, 2**31 - 1.
    """

    seeds: tuple
    spent: int
    remaining_budget: int
    trace: Trace


def _outcome(econ, budget, selected, trace) -> SelectionOutcome:
    spent = seed_cost(econ, selected)
    return SelectionOutcome(tuple(sorted(selected)), spent, budget - spent, trace)


def _candidates(g, econ, budget, free):
    # what a selector may pick: the view's nodes outside the free frontier
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    econ.check_covers(g)
    for v in free:
        g._require(v, "free seed")
    return [u for u in g.nodes if u not in free]


def single_greedy(g: SocialGraph, econ: NodeEconomics, budget: int, sample,
                  free=frozenset()) -> SelectionOutcome:
    """Iterated best gain-per-cost selection until gains turn non-positive.

    Each round accepts the affordable candidate with the highest ratio
    (coverage gain / replications - cost) / cost on the sample, ties to the
    lowest id.  Candidates whose cost exceeds the remaining budget can never
    become affordable again and leave the pool permanently, which also
    guarantees termination.  ``sample`` is a ``LiveSample`` of the base graph
    ``g`` shares; its :func:`~profitmax.diffusion.gain_bounds` for ``econ``'s
    benefits are the upper bounds each candidate's lazy evaluation starts
    from.  ``free`` nodes of ``g`` (an observed frontier) are covered before
    any candidate is rated, and are neither charged nor selected.
    """
    candidates = _candidates(g, econ, budget, free)
    cost = econ.cost
    replications = sample.replications
    cover = SnapshotCoverage(sample, econ.benefit, g, free)
    bound = gain_bounds(sample, econ.benefit)

    def ratio(u, gain):
        return (gain / replications - cost[u]) / cost[u]

    # every affordable node starts from its whole-sample ratio, a bound the
    # view's blocked copies and the frontier's cover can only lower, stale
    # from round -1: a node is rated exactly only when its stale ratio
    # reaches the top
    trace = Trace()
    rounds, nodes, decide, ratios = trace._writers()
    queue = []
    for u in candidates:
        if cost[u] > budget:
            rounds(0), nodes(u), decide(_UNAFFORDABLE)
        else:
            queue.append((-ratio(u, bound[u]), u, -1))
    heapify(queue)
    selected = []
    remaining = budget
    round_no = 0
    # this round's walks: a node is accepted only once rated this round, so
    # its add reuses the walk it was rated with
    fresh = {}
    while queue:
        neg_ratio, u, evaluated_in = queue[0]
        if cost[u] > remaining:
            heappop(queue)
            rounds(round_no), nodes(u), decide(_UNAFFORDABLE)
        elif evaluated_in != round_no:
            fresh[u] = reached = cover.reach(u)
            r = ratio(u, cover.benefit(u, reached))
            ratios[len(trace)] = (r, None)
            rounds(round_no), nodes(u), decide(_EVALUATED)
            heapreplace(queue, (-r, u, round_no))
        elif neg_ratio >= 0.0:
            ratios[len(trace)] = (-neg_ratio, None)
            rounds(round_no), nodes(u), decide(_REJECTED)
            break
        else:
            heappop(queue)
            ratios[len(trace)] = (-neg_ratio, None)
            rounds(round_no), nodes(u), decide(_ACCEPTED)
            cover.add(u, fresh[u])
            fresh.clear()
            selected.append(u)
            remaining -= cost[u]
            round_no += 1
    return _outcome(econ, budget, selected, trace)


def _scan(econ, budget, order, gate=None) -> SelectionOutcome:
    # a node that does not fit the remaining budget is never gated; a gate
    # returns (taken, ratio, remove_ratio) and, before ``order`` yields the
    # next node, updates any state of its own that follows the taken nodes.
    # The i-th node scanned is the trace's i-th entry, of round i
    cost = econ.cost
    selected = []
    remaining = budget
    trace = Trace()
    rounds, nodes, decide, ratios = trace._writers()
    for i, u in enumerate(order):
        rounds(i), nodes(u)
        if cost[u] > remaining:
            decide(_UNAFFORDABLE)
            continue
        if gate is None:
            taken = True
        else:
            taken, ratio, remove_ratio = gate(i, u, selected)
            ratios[i] = ratio, remove_ratio
        if taken:
            selected.append(u)
            remaining -= cost[u]
        decide(_ACCEPTED if taken else _REJECTED)
    return _outcome(econ, budget, selected, trace)


def double_greedy(g: SocialGraph, econ: NodeEconomics, budget: int, sample,
                  free=frozenset()) -> SelectionOutcome:
    """Single pass keeping a growing set S and a shrinking set T; ends with S == T.

    Nodes are scanned in ascending id order; one that does not fit the
    remaining budget leaves T unscored.  An affordable u of cost c joins S
    when gain + loss >= 2cR, and leaves T otherwise (Buchbinder et al., FOCS
    2012: the add ratio (gain/R - c)/c against the remove ratio
    (c - loss/R)/c), with gain = f(S + u) - f(S) and loss = f(T) - f(T - u)
    summed exactly over ``sample``'s R live graphs.  As S is a subset of
    T - u, 0 <= loss <= gain: a gain of at least 2cR takes u and one below cR
    rejects it, whatever the loss, so the loss is read only in between.  T is
    never stored: it is S plus the candidates not yet scanned.  ``sample`` is
    a ``LiveSample`` of the base graph ``g`` shares; ``free`` nodes of ``g``
    (an observed frontier) are covered before any candidate is rated, and
    are neither charged nor selected.
    """
    candidates = _candidates(g, econ, budget, free)
    cost = econ.cost
    replications = sample.replications
    grow = SnapshotCoverage(sample, econ.benefit, g, free)
    # the reverse pass, built when the first gain cannot decide, over the
    # candidates from there on: at position idx, T less u covers a copy that
    # S leaves uncovered exactly when a later candidate covers it too.  Built
    # around S's cover at that point, which only stops its walks sooner:
    # what a covered copy reaches is covered too
    last = first = None

    def gate(idx, u, selected):
        nonlocal last, first
        c = cost[u]
        # one walk around S's cover gives the gain, the loss if it is read,
        # and the add if u joins
        reached = grow.reach(u)
        gain = grow.benefit(u, reached)
        cost_sum = c * replications
        remove_ratio = None
        if cost_sum <= gain < 2 * cost_sum:
            if last is None:
                last, first = last_coverers(sample, candidates[idx:], grow.covered), idx
            loss = grow.benefit(u, reached, last, idx - first + 2)
            remove_ratio = (c - loss / replications) / c
            taken = gain + loss >= 2 * cost_sum
        else:
            taken = gain >= 2 * cost_sum
        if taken:
            grow.add(u, reached)
        return taken, (gain / replications - c) / c, remove_ratio

    return _scan(econ, budget, candidates, gate)


def baseline_random(g: SocialGraph, econ: NodeEconomics, budget: int, source,
                    free=frozenset()) -> SelectionOutcome:
    """Uniform random order, taking every node that still fits the budget."""
    order = _candidates(g, econ, budget, free)
    source.stream("order").shuffle(order)
    return _scan(econ, budget, order)


def _gain_gate(g, econ, replications, source, free):
    # the score-ordered baselines take an affordable node when its estimated
    # profit gain, with the frontier as free seeds, is non-negative; the
    # ratio recorded is gain / cost
    cost = econ.cost

    def gate(i, u, selected):
        gain = marginal_profit_gain(g, econ, selected, u, replications,
                                    source.child("evaluate", i), free_seeds=free)
        return gain >= 0.0, gain / cost[u], None

    return gate


def baseline_high_degree(g: SocialGraph, econ: NodeEconomics, budget: int,
                         replications: int, source, free=frozenset()) -> SelectionOutcome:
    """Descending-degree scan with non-negative-gain and budget gates.

    Ties go to the lowest id: the sort is stable and the candidates ascend.
    """
    candidates = _candidates(g, econ, budget, free)
    order = sorted(candidates, key=degrees(g).__getitem__, reverse=True)
    return _scan(econ, budget, order, _gain_gate(g, econ, replications, source, free))


def baseline_clustering_coefficient(g: SocialGraph, econ: NodeEconomics, budget: int,
                                    replications: int, source,
                                    free=frozenset()) -> SelectionOutcome:
    """Descending clustering-coefficient scan with the same gates as high degree."""
    candidates = _candidates(g, econ, budget, free)
    order = sorted(candidates, key=clustering_coefficients(g).__getitem__, reverse=True)
    return _scan(econ, budget, order, _gain_gate(g, econ, replications, source, free))


def baseline_single_discount(g: SocialGraph, econ: NodeEconomics, budget: int,
                             replications: int, source, free=frozenset()) -> SelectionOutcome:
    """Degree scan where each selection discounts its neighbors' degrees by one.

    The next node is the unexamined one of highest effective degree, ties to
    the lowest id, with the same gates as high degree (the SingleDiscount
    heuristic of Chen, Wang & Yang, KDD 2009).  Only candidates are
    discounted: the frontier is not in the pool.
    """
    candidates = _candidates(g, econ, budget, free)
    degree_of = degrees(g)
    effective = {u: degree_of[u] for u in candidates}
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

    gain_gate = _gain_gate(g, econ, replications, source, free)

    def gate(i, u, selected):
        # a taken node discounts its neighbors in the pool before the heap
        # yields again; discounting an examined one changes nothing
        verdict = gain_gate(i, u, selected)
        if verdict[0]:
            for v, _ in g.out_arcs(u):
                if v in effective:
                    effective[v] -= 1
        return verdict

    return _scan(econ, budget, order(), gate)


SELECTORS = {
    "single_greedy": single_greedy,
    "double_greedy": double_greedy,
    "random": lambda g, econ, budget, _, source, free: (
        baseline_random(g, econ, budget, source, free)),
    "high_degree": baseline_high_degree,
    "clustering_coefficient": baseline_clustering_coefficient,
    "single_discount": baseline_single_discount,
}

# the selectors that score on a cell's sample of live graphs
SNAPSHOT_SELECTORS = frozenset({"single_greedy", "double_greedy"})


def select(name: str, g: SocialGraph, econ: NodeEconomics, budget: int,
           replications: int, source, sample=None, free=frozenset()) -> SelectionOutcome:
    """Dispatch to a selector by registry name.

    A selector in :data:`SNAPSHOT_SELECTORS` takes ``sample``, a
    ``LiveSample``, and ignores ``replications`` and ``source``; the rest
    take no sample, and the score-ordered baselines estimate each gain from
    ``replications`` cascades.  ``free`` nodes of ``g`` (phase two's observed
    frontier) seed every cascade at no cost and earn nothing; none is picked.
    """
    try:
        selector = SELECTORS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(sorted(SELECTORS))}")
    if name not in SNAPSHOT_SELECTORS:
        if sample is None:
            return selector(g, econ, budget, replications, source, free)
        raise ValueError(f"{name} takes no live-graph sample")
    if isinstance(sample, LiveSample):
        return selector(g, econ, budget, sample, free)
    raise ValueError(f"{name} needs a live-graph sample as a LiveSample")
