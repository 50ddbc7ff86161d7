"""Social graph with per-arc influence probabilities and node economics.

The graph is immutable after construction and stored in CSR form (flat target
and probability arrays plus per-node offsets) so that diffusion simulation is
an index walk.  Restricted views produced by :func:`exclude_nodes` share the
base storage and filter removed endpoints during traversal; phase-two
selection builds many such views, so copying is deliberately avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SocialGraph",
    "NodeEconomics",
    "build_graph",
    "seed_cost",
    "exclude_nodes",
    "degree",
    "clustering_coefficient",
    "clustering_coefficients",
]


class SocialGraph:
    """Directed or undirected influence graph over dense 0-based node ids.

    Undirected input edges are stored as two directed arcs with equal
    probability.  ``uniform_p`` is the probability every arc shares, or None;
    :func:`build_graph` works it out once per base graph.  ``among`` is the
    base graph's per-node count of neighbour pairs joined by an arc, an empty
    list until the first clustering query fills it.  A restricted view is the
    same class with a non-empty ``removed`` set; it exposes only surviving
    nodes and arcs while sharing the base arrays, their ``uniform_p`` and
    their ``among`` list.
    """

    __slots__ = (
        "base_node_count",
        "directed",
        "removed",
        "original_ids",
        "duplicates_collapsed",
        "self_loops_dropped",
        "_offsets",
        "_targets",
        "_probs",
        "_uniform_p",
        "_among",
        "_blocked_cache",
    )

    def __init__(self, base_node_count, directed, offsets, targets, probs, uniform_p,
                 among, removed=frozenset(), original_ids=None, duplicates_collapsed=0,
                 self_loops_dropped=0):
        self.base_node_count = base_node_count
        self.directed = directed
        self.removed = frozenset(removed)
        self.original_ids = original_ids
        self.duplicates_collapsed = duplicates_collapsed
        self.self_loops_dropped = self_loops_dropped
        self._offsets = offsets
        self._targets = targets
        self._probs = probs
        self._uniform_p = uniform_p
        self._among = among
        self._blocked_cache = None

    # -- node and arc access ------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.base_node_count - len(self.removed)

    @property
    def nodes(self) -> list:
        """Surviving node ids in ascending order."""
        if not self.removed:
            return list(range(self.base_node_count))
        return [u for u in range(self.base_node_count) if u not in self.removed]

    def has_node(self, u) -> bool:
        return 0 <= u < self.base_node_count and u not in self.removed

    def out_arcs(self, u):
        """List of (target, probability) for surviving arcs out of ``u``."""
        self._require(u)
        removed = self.removed
        out = []
        for i in range(self._offsets[u], self._offsets[u + 1]):
            v = self._targets[i]
            if v not in removed:
                out.append((v, self._probs[i]))
        return out

    def arc_list(self):
        """All surviving arcs as (source, target, probability) in source order."""
        arcs = []
        removed = self.removed
        for u in range(self.base_node_count):
            if u in removed:
                continue
            for i in range(self._offsets[u], self._offsets[u + 1]):
                v = self._targets[i]
                if v not in removed:
                    arcs.append((u, v, self._probs[i]))
        return arcs

    @property
    def arc_count(self) -> int:
        if not self.removed:
            return len(self._targets)
        return len(self.arc_list())

    def _require(self, u, what="node"):
        if not self.has_node(u):
            raise ValueError(f"unknown {what} id {u!r}")

    # -- simulation internals -------------------------------------------------

    def _engine(self):
        return self._offsets, self._targets, self._probs, self._uniform_p

    def _blocked_template(self) -> bytes:
        # removed nodes are pre-marked active so they never fire or count
        if self._blocked_cache is None:
            tmpl = bytearray(self.base_node_count)
            for r in self.removed:
                tmpl[r] = 1
            self._blocked_cache = bytes(tmpl)
        return self._blocked_cache

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        tag = f", removed={len(self.removed)}" if self.removed else ""
        return f"SocialGraph({kind}, nodes={self.node_count}, arcs={self.arc_count}{tag})"


@dataclass(frozen=True)
class NodeEconomics:
    """Per-node incentive cost and earnable benefit, indexed by node id."""

    cost: tuple
    benefit: tuple

    def __post_init__(self):
        if len(self.cost) != len(self.benefit):
            raise ValueError("cost and benefit tables must cover the same nodes")
        for u, c in enumerate(self.cost):
            if c < 1:
                raise ValueError(f"cost of node {u} must be >= 1, got {c}")
        for u, b in enumerate(self.benefit):
            if b < 1:
                raise ValueError(f"benefit of node {u} must be >= 1, got {b}")

    def check_covers(self, g: SocialGraph):
        if len(self.cost) != g.base_node_count:
            raise ValueError(
                f"economics table covers {len(self.cost)} nodes, graph has {g.base_node_count}"
            )


def build_graph(edges, directed: bool, original_ids=None, self_loops_dropped=0) -> SocialGraph:
    """Build a :class:`SocialGraph` from (source, target, probability) triples.

    Probabilities must lie in (0, 1]; self-loops are rejected.  Duplicate
    (source, target) pairs are collapsed keeping the first occurrence, with
    the collapse count recorded on the graph.  For undirected graphs a pair
    and its reverse are the same edge, and each surviving edge is stored as
    two directed arcs.  ``original_ids`` and ``self_loops_dropped`` record
    what a loader did to its input before building; they are kept as given.
    """
    adj = {}
    seen = set()
    duplicates = 0
    max_node = -1
    for u, v, p in edges:
        if u < 0 or v < 0:
            raise ValueError(f"node ids must be non-negative, got ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"arc probability must be in (0, 1], got {p}")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        adj.setdefault(u, []).append((v, p))
        if not directed:
            adj.setdefault(v, []).append((u, p))
        max_node = max(max_node, u, v)

    n = max_node + 1
    offsets = [0] * (n + 1)
    targets = []
    probs = []
    for u in range(n):
        out = sorted(adj.get(u, ()))
        offsets[u + 1] = offsets[u] + len(out)
        for v, p in out:
            targets.append(v)
            probs.append(p)
    first = probs[0] if probs else None
    uniform_p = first if all(p == first for p in probs) else None
    return SocialGraph(n, directed, offsets, targets, probs, uniform_p, [],
                       original_ids=original_ids, duplicates_collapsed=duplicates,
                       self_loops_dropped=self_loops_dropped)


def seed_cost(econ: NodeEconomics, seeds) -> int:
    """Total incentive cost of a seed set; the empty set costs 0."""
    total = 0
    for u in seeds:
        if not 0 <= u < len(econ.cost):
            raise ValueError(f"unknown node id {u!r}")
        total += econ.cost[u]
    return total


def exclude_nodes(g: SocialGraph, removed) -> SocialGraph:
    """Restricted view of ``g`` without ``removed`` and their incident arcs.

    The view shares the base storage; ``g`` itself is unchanged.  Exclusions
    compose: excluding A then B equals excluding A | B.
    """
    removed = frozenset(removed)
    for u in removed:
        g._require(u)
    if not removed:
        return g
    return SocialGraph(
        g.base_node_count, g.directed, g._offsets, g._targets, g._probs, g._uniform_p, g._among,
        removed=g.removed | removed, original_ids=g.original_ids,
        duplicates_collapsed=g.duplicates_collapsed, self_loops_dropped=g.self_loops_dropped,
    )


def degree(g: SocialGraph, u) -> int:
    """Surviving out-degree (equals neighbor count on undirected graphs)."""
    return len(g.out_arcs(u))


def _base_among(g: SocialGraph) -> list:
    # ordered neighbour pairs joined by an arc, per node of the base graph;
    # counted on first use and published whole into the list the base shares
    # with its views, so an interrupted count leaves it empty, not truncated
    among = g._among
    if not among:
        offsets, targets = g._offsets, g._targets
        counts = []
        for u in range(g.base_node_count):
            neighbors = set(targets[offsets[u]:offsets[u + 1]])
            # build_graph keeps no self-loops or duplicate arcs: sizes count arcs
            counts.append(sum(len(neighbors.intersection(targets[offsets[w]:offsets[w + 1]]))
                              for w in neighbors))
        among.extend(counts)
    return among


def clustering_coefficient(g: SocialGraph, u) -> float:
    """Fraction of ordered out-neighbor pairs of ``u`` joined by an arc.

    0.0 for nodes with fewer than two neighbors.  On undirected graphs the
    doubled-arc storage makes this equal the usual undirected coefficient.
    """
    g._require(u)
    return clustering_coefficients(g)[u]


def clustering_coefficients(g: SocialGraph) -> dict:
    """:func:`clustering_coefficient` of every surviving node, keyed by node id.

    The base graph's pair counts are made once and shared with its views.  A
    view corrects only the nodes with a neighbour in its removed set: of the
    pairs joined by an arc, those with a removed end leave the count.  That is
    the arcs out of the removed neighbours plus those into them, less those
    among them, which both terms counted.  The removed nodes' in-neighbours
    come from one scan of the arcs.
    """
    among = _base_among(g)
    removed = g.removed
    offsets, targets = g._offsets, g._targets
    if removed and g.directed:
        sources = {r: [] for r in removed}
        for s in range(g.base_node_count):
            for r in removed.intersection(targets[offsets[s]:offsets[s + 1]]):
                sources[r].append(s)
    else:
        # an undirected graph stores each edge both ways: in-arcs mirror out-arcs
        sources = {r: targets[offsets[r]:offsets[r + 1]] for r in removed}
    coefficients = {}
    for u in g.nodes:
        row = targets[offsets[u]:offsets[u + 1]]
        k = len(row)
        among_u = among[u]
        gone = removed.intersection(row)
        if gone:
            neighbors = set(row)
            k -= len(gone)
            for r in gone:
                out_r = targets[offsets[r]:offsets[r + 1]]
                among_u -= (len(neighbors.intersection(out_r))
                            + len(neighbors.intersection(sources[r]))
                            - len(gone.intersection(out_r)))
        coefficients[u] = among_u / (k * (k - 1)) if k >= 2 else 0.0
    return coefficients
