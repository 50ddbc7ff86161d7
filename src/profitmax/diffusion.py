"""Independent cascade simulation, the live-graph sample and the exhaustive oracle.

Two routes to the same distribution live here.  One step loop runs the
step-wise cascade, sampling each arc out of a newly active node toward a
still-inactive target exactly once: :func:`observe_until` runs it for a given
number of steps, and the Monte Carlo estimator's per-arc sampler to the
fixpoint.  The enumeration core expands all 2^m arc subsets with their
generation probabilities, and diffusion outcome on a live graph is plain
reachability: :meth:`_ArcIndex.reach` walks it to the fixpoint and
:meth:`_ArcIndex.observe` for a number of steps, and the exact oracles in
:mod:`profitmax.profit` and :mod:`profitmax.twophase` sum over those walks.
Tests hold the two routes against each other, so keep them independent.

The graph picks the Monte Carlo sampler.  When every arc of the base graph
shares a probability below ``GEOMETRIC_P_CUTOFF``, the estimator and
:func:`sample_live_graphs` jump geometric gaps between successes (one draw
per success instead of one per arc, which is what makes the experiment
protocol affordable at small probabilities); otherwise they draw once per
arc.  Both give the same outcome distribution.  :func:`sample_live_graphs`
draws the snapshot estimator's live graphs, always of a base graph.

The greedy selectors estimate on that fixed sample of live graphs, one per
cell (:class:`SnapshotCoverage`): there benefit is exact weighted
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
from dataclasses import dataclass, field
from itertools import accumulate
from math import log

from .graph import SocialGraph

__all__ = [
    "PartialObservation",
    "observe_until",
    "LiveSample",
    "sample_live_graphs",
    "SnapshotCoverage",
    "last_coverers",
    "gain_bounds",
]

# geometric gap sampling beats per-arc draws only when successes are sparse
GEOMETRIC_P_CUTOFF = 0.25
# the exact oracles expand 2^m live graphs: an oracle's budget, not a run's
ENUMERATION_LIMIT = 20
# the largest value a live-graph sample's 4-byte array("i") entries can hold
SAMPLE_INT_MAX = 2 ** 31 - 1


@dataclass(frozen=True)
class PartialObservation:
    """Activation status after watching a cascade for a number of steps."""

    already_active: frozenset
    newly_active: frozenset


def _check_seeds(g: SocialGraph, seeds):
    out = sorted(set(seeds))
    for u in out:
        if not g.has_node(u):
            raise ValueError(f"seed {u!r} is not a node of this graph")
    return out


def observe_until(g: SocialGraph, seeds, d: int, rng) -> PartialObservation:
    """Watch a cascade from ``seeds`` for ``d`` steps: everyone active, and the step-d frontier.

    Each arc from a newly active node to an inactive target is sampled exactly
    once with its probability.  Newly active nodes fire in ascending id order
    and their out-arcs in adjacency order, so a given stream always reproduces
    the same observation.  The frontier is empty when the cascade dies out
    before step ``d``; step 0 is the seed set itself.
    """
    if d < 0:
        raise ValueError(f"observation step must be >= 0, got {d}")
    seeds = _check_seeds(g, seeds)
    state = g._blocked_template(seeds)
    reached, frontier = _cascade(g, state, seeds, d, rng.random)
    return PartialObservation(frozenset(seeds + reached), frozenset(frontier))


def _cascade(g: SocialGraph, state, frontier, steps, rand):
    """Run the cascade from ``frontier`` for up to ``steps`` steps; ``state`` marks the active.

    Each step fires the frontier in ascending id order and each node's out-arcs
    in adjacency order, drawing once per arc toward a still-inactive target.
    Returns the newly activated nodes, each step sorted, and the last frontier.
    """
    offsets, targets, probs, uniform = g._engine()
    reached = []
    for _ in range(steps):
        if not frontier:
            break
        nxt = []
        for u in frontier:
            for i in range(offsets[u], offsets[u + 1]):
                v = targets[i]
                if not state[v] and rand() < (uniform or probs[i]):
                    state[v] = 1
                    nxt.append(v)
        nxt.sort()
        reached += nxt
        frontier = nxt
    return reached, frontier


# -- live-graph enumeration core (shared by the exact estimators) -------------


class _ArcIndex:
    """The surviving arcs of a graph grouped by source, for walks over live graphs.

    A live graph is a bitmask: bit i keeps arc i of ``g.arc_list()``.
    ``out[u]`` lists the indices of the arcs out of ``u`` in adjacency order
    and ``targets[i]`` is the head of arc i.
    """

    __slots__ = ("out", "targets", "probs")

    def __init__(self, g: SocialGraph):
        arcs = g.arc_list()
        self.out = [[] for _ in range(g.base_node_count)]
        for i, (u, _, _) in enumerate(arcs):
            self.out[u].append(i)
        self.targets = [v for _, v, _ in arcs]
        self.probs = [p for _, _, p in arcs]

    def reach(self, mask, seeds, blocked=frozenset()):
        """Nodes reachable from ``seeds`` over the kept arcs, never entering ``blocked``."""
        out, targets = self.out, self.targets
        active = set(seeds)
        stack = list(seeds)
        while stack:
            u = stack.pop()
            for i in out[u]:
                if mask >> i & 1:
                    v = targets[i]
                    if v not in active and v not in blocked:
                        active.add(v)
                        stack.append(v)
        return active

    def observe(self, mask, seeds, d):
        """Deterministic observation of live graph ``mask``: d-step reach from seeds.

        Returns (active set, step-d frontier, tuple of examined (arc, state))
        where examined arcs are those fired by nodes active before the horizon
        toward then-inactive targets — exactly the information the observation
        reveals about the world.
        """
        out, targets = self.out, self.targets
        active = set(seeds)
        newly = sorted(seeds)
        examined = []
        for _ in range(d):
            nxt = []
            for u in newly:
                for i in out[u]:
                    v = targets[i]
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


def _live_worlds(g: SocialGraph):
    """The arc index of ``g`` and an iterator over all its live graphs.

    The iterator yields every ``(mask, probability)`` pair of the index's
    bitmask encoding.  Refuses, at call time, graphs above
    ``ENUMERATION_LIMIT`` arcs.
    """
    index = _ArcIndex(g)
    m = len(index.targets)
    if m > ENUMERATION_LIMIT:
        raise ValueError(
            f"graph has {m} arcs, above the enumeration limit {ENUMERATION_LIMIT}"
        )

    def worlds():
        for mask in range(1 << m):
            prob = 1.0
            for i, p in enumerate(index.probs):
                prob *= p if mask >> i & 1 else 1.0 - p
            yield mask, prob

    return index, worlds()


# -- Monte Carlo sampling core -------------------------------------------------


def _geometric_scale(g: SocialGraph):
    """The geometric gap scale ``1 / log(1 - p)`` when every arc of ``g`` shares a p
    below ``GEOMETRIC_P_CUTOFF``; None when each arc is drawn on its own."""
    p = g._engine()[3]
    return 1.0 / log(1.0 - p) if p is not None and p < GEOMETRIC_P_CUTOFF else None


def _gain_samples(g: SocialGraph, value, active0, replications, rnd):
    """Per-replication sum of ``value[v]`` over nodes activated beyond ``active0``.

    ``active0`` is the sorted initial active set (already validated); ``value``
    is a dense per-node payoff table, and nodes of ``active0`` earn nothing.
    Returns a list of ``replications`` gains, each a plain sum of ``value``
    entries (an ``int`` for integer values).

    The first step always fires all of ``active0``, so the geometric sampler
    walks it as one list of their arc targets in firing order, built once per
    call: a replication whose first gap overshoots that list costs one draw
    and no state copy.  Later steps fire a different frontier each time and
    carry the gap from node to node instead, since copying a frontier's arcs
    into one list costs more than the few draws that land in it.
    """
    offsets, targets, _, _ = g._engine()
    scale = _geometric_scale(g)
    template = g._blocked_template(active0)
    samples = []
    append = samples.append
    rand = rnd.random

    if scale is None:
        # a cascade that still spreads activates a node per step, so this many
        # steps reach the fixpoint
        steps = g.base_node_count
        for _ in range(replications):
            reached, _ = _cascade(g, template[:], active0, steps, rand)
            append(sum(map(value.__getitem__, reached)))
        return samples
    if not active0:
        return [0] * replications
    first = [v for u in active0 for v in targets[offsets[u]:offsets[u + 1]]]
    width = len(first)
    for _ in range(replications):
        i = int(log(1.0 - rand()) * scale)
        if i >= width:
            append(0)
            continue
        state = template[:]
        frontier = []
        gain = 0
        while i < width:
            v = first[i]
            if not state[v]:
                state[v] = 1
                frontier.append(v)
                gain += value[v]
            i += 1 + int(log(1.0 - rand()) * scale)
        frontier.sort()
        while frontier:
            nxt = []
            need = int(log(1.0 - rand()) * scale)
            for u in frontier:
                i = offsets[u] + need
                end = offsets[u + 1]
                while i < end:
                    v = targets[i]
                    if not state[v]:
                        state[v] = 1
                        nxt.append(v)
                        gain += value[v]
                    i += 1 + int(log(1.0 - rand()) * scale)
                need = i - end
            nxt.sort()
            frontier = nxt
        append(gain)
    return samples


@dataclass(frozen=True)
class LiveSample:
    """``replications`` sampled live graphs of one base graph, in two flat arrays.

    Node ``u`` of snapshot ``r`` has the flat id ``u * replications + r``, so
    one node's copies are contiguous.  The kept arcs out of flat id ``x`` are
    ``targets[offsets[x]:offsets[x + 1]]``, themselves flat ids of the same
    snapshot; the kept arcs of ``u`` in every snapshot are therefore the single
    range ``offsets[u * replications]:offsets[(u + 1) * replications]``.
    Both arrays hold 4-byte ints (``array("i")``), so :func:`sample_live_graphs`
    refuses a graph whose node or arc count times ``replications`` exceeds
    ``SAMPLE_INT_MAX``.  ``bounds`` keeps :func:`gain_bounds`' last build
    with the draw, as a ``[benefits, gains]`` pair outside the sample's
    equality.
    """

    node_count: int
    replications: int
    offsets: array
    targets: array
    bounds: list = field(default_factory=list, compare=False, repr=False)


def sample_live_graphs(g: SocialGraph, replications: int, rnd) -> LiveSample:
    """Draw ``replications`` independent live graphs of the base graph ``g`` shares.

    A view gives its base's sample from the same stream; the
    :class:`SnapshotCoverage` built for the view restricts that to it.  Arcs
    are visited node-major: each node, each snapshot, each out-arc in
    adjacency order.  At a uniform probability below
    ``GEOMETRIC_P_CUTOFF`` the draws jump between kept positions of that
    sequence; otherwise each arc is drawn once.  A graph too large for the
    sample's 4-byte arrays is refused before anything is drawn.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    offsets, targets, probs, uniform = g._engine()
    n, R = g.base_node_count, replications
    if max(n, len(targets)) * R > SAMPLE_INT_MAX:
        raise ValueError(
            f"{R} live graphs of {n} nodes and {len(targets)} arcs need flat ids "
            f"or arc counts above {SAMPLE_INT_MAX}"
        )
    scale = _geometric_scale(g)
    # kept arcs arrive in flat-id order, so the sample's offsets are the
    # running count of kept arcs at the end of each flat id
    ends = array("i", [0])
    kept = array("i")
    append = kept.append
    rand = rnd.random

    if scale is not None:
        i = int(log(1.0 - rand()) * scale)
        for u in range(n):
            lo = offsets[u]
            d = offsets[u + 1] - lo
            span = d * R
            # u's kept arcs per snapshot on top of all kept before u: the
            # running sums are where u's copies end
            counts = [0] * R
            counts[0] = len(kept)
            while i < span:
                r, k = divmod(i, d)
                counts[r] += 1
                append(targets[lo + k] * R + r)
                i += 1 + int(log(1.0 - rand()) * scale)
            i -= span
            ends.fromlist(list(accumulate(counts)))
    else:
        end = ends.append
        for u in range(n):
            arcs = [(targets[i], uniform or probs[i]) for i in range(offsets[u], offsets[u + 1])]
            for r in range(R):
                for v, p in arcs:
                    if rand() < p:
                        append(v * R + r)
                end(len(kept))
    return LiveSample(n, R, ends, kept)


# -- snapshot estimator: coverage and walks over a live-graph sample -----------


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
