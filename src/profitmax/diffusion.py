"""Independent cascade simulation and the exhaustive live-graph oracle.

Two routes to the same distribution live here.  One step loop runs the
step-wise cascade, sampling each arc out of a newly active node toward a
still-inactive target exactly once: :func:`observe_until` runs it for a given
number of steps, and the Monte Carlo estimator's per-arc sampler to the
fixpoint.  The enumeration core expands all 2^m arc subsets with their
generation probabilities, and diffusion outcome on a live graph is plain reachability;
the exact oracles in :mod:`profitmax.profit` and :mod:`profitmax.twophase`
sum over it.  Tests hold the two routes against each other, so keep them
independent.

The graph picks the Monte Carlo sampler.  When every arc of the base graph
shares a probability below ``GEOMETRIC_P_CUTOFF``, the estimator and
:func:`sample_live_graphs` jump geometric gaps between successes (one draw
per success instead of one per arc, which is what makes the experiment
protocol affordable at small probabilities); otherwise they draw once per
arc.  Both give the same outcome distribution.  :func:`sample_live_graphs`
draws the snapshot estimator's live graphs, always of a base graph.
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
    state = g._blocked_template()
    for s in seeds:
        state[s] = 1
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
    template = g._blocked_template()
    for s in active0:
        template[s] = 1
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
    ``SAMPLE_INT_MAX``.  ``bounds`` keeps :func:`profitmax.profit.gain_bounds`'
    last build with the draw, as a ``[benefits, gains]`` pair outside the
    sample's equality.
    """

    node_count: int
    replications: int
    offsets: array
    targets: array
    bounds: list = field(default_factory=list, compare=False, repr=False)


def sample_live_graphs(g: SocialGraph, replications: int, rnd) -> LiveSample:
    """Draw ``replications`` independent live graphs of the base graph ``g`` shares.

    A view gives its base's sample from the same stream; the
    :class:`~profitmax.profit.SnapshotCoverage` built for the view restricts
    that to it.  Arcs are visited node-major: each node, each snapshot, each
    out-arc in adjacency order.  At a uniform probability below
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
