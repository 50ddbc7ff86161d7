"""Independent cascade simulation and the exhaustive live-graph oracle.

Two routes to the same distribution live here.  :func:`simulate_ic` runs the
step-wise cascade, sampling each arc out of a newly active node toward a
still-inactive target exactly once.  :func:`enumerate_live_graphs` expands all
2^m arc subsets with their generation probabilities; diffusion outcome on a
live graph is plain reachability.  Tests hold the two routes against each
other, so keep them independent.

The Monte Carlo sampler used by the estimators supports two arc-sampling
strategies with identical outcome distributions: per-arc Bernoulli draws, and
geometric gaps between successes for uniform-probability graphs (one draw per
success instead of one per arc, which is what makes the experiment protocol
affordable at small probabilities).  :func:`sample_live_graphs` draws whole
live graphs with the same two strategies, for the greedy selectors' snapshot
estimator.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import log

from .graph import SocialGraph

__all__ = [
    "DiffusionTrace",
    "PartialObservation",
    "LiveGraph",
    "simulate_ic",
    "observe_until",
    "enumerate_live_graphs",
    "reachable_set",
    "LiveSample",
    "sample_live_graphs",
]

# geometric gap sampling beats per-arc draws only when successes are sparse
GEOMETRIC_P_CUTOFF = 0.25
# the exact oracles expand 2^m live graphs: an oracle's budget, not a run's
ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class DiffusionTrace:
    """Step-wise cascade outcome; ``steps[t]`` holds nodes activated at time t."""

    steps: tuple
    final_active: frozenset


@dataclass(frozen=True)
class PartialObservation:
    """Activation status after watching a cascade up to a step horizon."""

    already_active: frozenset
    newly_active: frozenset


@dataclass(frozen=True)
class LiveGraph:
    """One world realization: indices of kept arcs and its probability."""

    kept_arcs: frozenset
    generation_probability: float


def _check_seeds(g: SocialGraph, seeds):
    out = sorted(set(seeds))
    for u in out:
        if not g.has_node(u):
            raise ValueError(f"seed {u!r} is not a node of this graph")
    return out


def simulate_ic(g: SocialGraph, seeds, rng, horizon=None) -> DiffusionTrace:
    """Run one independent cascade from ``seeds``, drawing arcs lazily.

    Each arc from a newly active node to an inactive target is sampled exactly
    once with its probability.  Newly active nodes fire in ascending id order
    and their out-arcs in adjacency order, so a given stream always reproduces
    the same trace.  ``horizon`` bounds the number of diffusion steps after
    seeding; ``None`` runs to fixpoint.
    """
    frontier = _check_seeds(g, seeds)
    offsets, targets, probs, _ = g._engine()
    state = bytearray(g._blocked_template())
    for s in frontier:
        state[s] = 1
    steps = [frozenset(frontier)]
    rand = rng.random
    t = 0
    while frontier and (horizon is None or t < horizon):
        nxt = []
        for u in frontier:
            for i in range(offsets[u], offsets[u + 1]):
                v = targets[i]
                if not state[v] and rand() < probs[i]:
                    state[v] = 1
                    nxt.append(v)
        if not nxt:
            break
        nxt.sort()
        steps.append(frozenset(nxt))
        frontier = nxt
        t += 1
    final = frozenset().union(*steps)
    return DiffusionTrace(tuple(steps), final)


def observe_until(g: SocialGraph, seeds, d: int, rng) -> PartialObservation:
    """Watch a cascade for ``d`` steps; report everyone active and the step-d frontier."""
    if d < 0:
        raise ValueError(f"observation step must be >= 0, got {d}")
    trace = simulate_ic(g, seeds, rng, horizon=d)
    newly = trace.steps[d] if len(trace.steps) > d else frozenset()
    return PartialObservation(trace.final_active, newly)


def enumerate_live_graphs(g: SocialGraph):
    """Yield all 2^m live graphs of ``g`` with generation probabilities.

    Oracle-only: refuses graphs above ``ENUMERATION_LIMIT`` arcs.  Arc indices
    refer to positions in ``g.arc_list()``.
    """
    index, worlds = _live_worlds(g)
    arc_ids = range(len(index.targets))
    for mask, prob in worlds:
        yield LiveGraph(frozenset(i for i in arc_ids if mask >> i & 1), prob)


def reachable_set(live: LiveGraph, g: SocialGraph, seeds) -> frozenset:
    """Nodes reachable from ``seeds`` using only the live graph's kept arcs."""
    seed_list = _check_seeds(g, seeds)
    mask = sum(1 << i for i in live.kept_arcs)
    return frozenset(_ArcIndex(g).reach(mask, seed_list))


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


def _pick_mode(g: SocialGraph, mode: str) -> str:
    """Resolve ``auto``, and check that ``g`` supports the mode asked for."""
    _, _, _, uniform_p = g._engine()
    if mode == "auto":
        geometric = uniform_p is not None and uniform_p < GEOMETRIC_P_CUTOFF
        return "geometric" if geometric else "bernoulli"
    if mode == "geometric" and (uniform_p is None or uniform_p >= 1.0):
        raise ValueError("geometric sampling requires a uniform probability below 1")
    if mode not in ("geometric", "bernoulli"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    return mode


def _gain_samples(g: SocialGraph, value, active0, replications, rnd, mode="auto"):
    """Per-replication sum of ``value[v]`` over nodes activated beyond ``active0``.

    ``active0`` is the sorted initial active set (already validated); ``value``
    is a dense per-node payoff table with zeros outside the measurement
    universe.  Returns a list of ``replications`` floats.
    """
    if not active0:
        return [0.0] * replications
    mode = _pick_mode(g, mode)
    offsets, targets, probs, uniform_p = g._engine()
    template = bytearray(g._blocked_template())
    for s in active0:
        template[s] = 1
    samples = []
    append = samples.append
    rand = rnd.random

    if mode == "geometric":
        inv_log_q = 1.0 / log(1.0 - uniform_p)
        for _ in range(replications):
            state = template[:]
            frontier = active0
            gain = 0.0
            while frontier:
                nxt = []
                need = int(log(1.0 - rand()) * inv_log_q)
                for u in frontier:
                    i = offsets[u] + need
                    end = offsets[u + 1]
                    while i < end:
                        v = targets[i]
                        if not state[v]:
                            state[v] = 1
                            nxt.append(v)
                            gain += value[v]
                        i += 1 + int(log(1.0 - rand()) * inv_log_q)
                    need = i - end
                nxt.sort()
                frontier = nxt
            append(gain)
    else:
        for _ in range(replications):
            state = template[:]
            frontier = active0
            gain = 0.0
            while frontier:
                nxt = []
                for u in frontier:
                    for i in range(offsets[u], offsets[u + 1]):
                        v = targets[i]
                        if not state[v] and rand() < probs[i]:
                            state[v] = 1
                            nxt.append(v)
                            gain += value[v]
                nxt.sort()
                frontier = nxt
            append(gain)
    return samples


@dataclass(frozen=True)
class LiveSample:
    """``replications`` sampled live graphs of one graph view, in two flat arrays.

    Node ``u`` of snapshot ``r`` has the flat id ``u * replications + r``, so
    one node's copies are contiguous.  The kept arcs out of flat id ``x`` are
    ``targets[offsets[x]:offsets[x + 1]]``, themselves flat ids of the same
    snapshot; the kept arcs of ``u`` in every snapshot are therefore the single
    range ``offsets[u * replications]:offsets[(u + 1) * replications]``.
    """

    node_count: int
    replications: int
    offsets: array
    targets: array


def sample_live_graphs(g: SocialGraph, replications: int, rnd, mode="auto") -> LiveSample:
    """Draw ``replications`` independent live graphs of ``g``.

    Arcs with a removed endpoint are never kept.  Arcs are visited node-major:
    each node, each snapshot, each out-arc in adjacency order.  Geometric mode
    jumps between kept positions of that sequence; Bernoulli mode draws once
    per surviving arc.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    mode = _pick_mode(g, mode)
    offsets, targets, probs, uniform_p = g._engine()
    blocked = g._blocked_template()
    n, R = g.base_node_count, replications
    # kept arcs arrive in flat-id order, so each flat id's range opens when its
    # first arc arrives; ids without arcs share the next one's start
    starts = [0]
    opened = 1  # len(starts)
    kept = array("q")
    append = kept.append
    rand = rnd.random

    if mode == "geometric":
        inv_log_q = 1.0 / log(1.0 - uniform_p)
        i = int(log(1.0 - rand()) * inv_log_q)
        for u in range(n):
            lo = offsets[u]
            d = offsets[u + 1] - lo
            span = d * R
            while i < span:
                r, k = divmod(i, d)
                v = targets[lo + k]
                if not blocked[u] and not blocked[v]:
                    x = u * R + r
                    if opened <= x:
                        starts += [len(kept)] * (x + 1 - opened)
                        opened = x + 1
                    append(v * R + r)
                i += 1 + int(log(1.0 - rand()) * inv_log_q)
            i -= span
    else:
        for u in range(n):
            if blocked[u]:
                continue
            arcs = [(targets[i], probs[i]) for i in range(offsets[u], offsets[u + 1])
                    if not blocked[targets[i]]]
            for r in range(R):
                x = u * R + r
                for v, p in arcs:
                    if rand() < p:
                        if opened <= x:
                            starts += [len(kept)] * (x + 1 - opened)
                            opened = x + 1
                        append(v * R + r)
    starts += [len(kept)] * (n * R + 1 - opened)
    return LiveSample(n, R, array("q", starts), kept)
