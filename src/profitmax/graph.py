"""Social graph with per-arc influence probabilities and node economics.

The graph is a frozen dataclass, never assigned to once built, stored in
CSR form (a flat target array plus per-node offsets, and a flat probability
array only where the arcs' probabilities differ) so that diffusion
simulation is an index walk.  Restricted views produced by
:func:`exclude_nodes` are copies made by :func:`dataclasses.replace` that
share the base storage and filter removed endpoints during traversal;
phase-two selection builds many such views, so the arrays are never copied.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain

__all__ = [
    "SocialGraph",
    "NodeEconomics",
    "build_graph",
    "seed_cost",
    "exclude_nodes",
    "degree",
    "degrees",
    "clustering_coefficient",
    "clustering_coefficients",
]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class SocialGraph:
    """Directed or undirected influence graph over dense 0-based node ids.

    Frozen, and equal and hashed by identity.  Undirected input edges are
    stored as two directed arcs with equal probability.  ``uniform_p`` is
    the probability every arc shares, or None; :func:`build_graph` works it
    out once per base graph.  ``among`` is the base graph's per-node count
    of neighbour pairs joined by an arc, an empty list until the first
    clustering query fills it.  A restricted view, and a loaded graph with
    its id table and self-loop count, is a :func:`dataclasses.replace` copy:
    a view has a non-empty ``removed`` set, exposes only surviving nodes and
    arcs, and shares the base arrays, their ``uniform_p`` and their
    ``among`` list.  The base keeps flat lists: ``offsets`` of n + 1 row
    starts and ``targets`` with one entry per arc, each row sorted by
    target, and ``probs`` aligned with ``targets`` only when the arcs'
    probabilities differ; it is None exactly when ``uniform_p`` is set, and
    arc i's probability is ``uniform_p or probs[i]``.  With the ``among``
    counts that is all: no per-node row dict or neighbour set outlives
    :func:`build_graph` or the first pair count.
    """

    base_node_count: int
    directed: bool
    _offsets: list
    _targets: list
    _probs: list | None
    _uniform_p: float | None
    _among: list
    removed: frozenset = frozenset()
    original_ids: tuple | None = None
    duplicates_collapsed: int = 0
    self_loops_dropped: int = 0

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
        removed, uniform, probs = self.removed, self._uniform_p, self._probs
        out = []
        for i in range(self._offsets[u], self._offsets[u + 1]):
            v = self._targets[i]
            if v not in removed:
                out.append((v, uniform or probs[i]))
        return out

    def arc_list(self):
        """All surviving arcs as (source, target, probability) in source order."""
        arcs = []
        removed, uniform, probs = self.removed, self._uniform_p, self._probs
        for u in self.nodes:
            for i in range(self._offsets[u], self._offsets[u + 1]):
                v = self._targets[i]
                if v not in removed:
                    arcs.append((u, v, uniform or probs[i]))
        return arcs

    @property
    def arc_count(self) -> int:
        if not self.removed:
            return len(self._targets)
        return sum(degrees(self).values())

    def _require(self, u, what="node"):
        if not self.has_node(u):
            raise ValueError(f"unknown {what} id {u!r}")

    # -- simulation internals -------------------------------------------------

    def _engine(self):
        return self._offsets, self._targets, self._probs, self._uniform_p

    def _blocked_template(self, active=()) -> bytearray:
        # a cascade's start state, a fresh array: the ``active`` nodes, and the
        # removed ones, which never fire or count, pre-marked active
        tmpl = bytearray(self.base_node_count)
        for r in self.removed:
            tmpl[r] = 1
        for s in active:
            tmpl[s] = 1
        return tmpl

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        tag = f", removed={len(self.removed)}" if self.removed else ""
        return f"SocialGraph({kind}, nodes={self.node_count}, arcs={self.arc_count}{tag})"


@dataclass(frozen=True)
class NodeEconomics:
    """Per-node incentive cost and earnable benefit, indexed by node id.

    Both are integers of at least 1 (``type(x) is int``, so no float or
    bool): the greedy selectors count gains exactly in integers.
    """

    cost: tuple
    benefit: tuple

    def __post_init__(self):
        if len(self.cost) != len(self.benefit):
            raise ValueError("cost and benefit tables must cover the same nodes")
        for u, c in enumerate(self.cost):
            if type(c) is not int or c < 1:
                raise ValueError(f"cost of node {u} must be an integer >= 1, got {c!r}")
        for u, b in enumerate(self.benefit):
            if type(b) is not int or b < 1:
                raise ValueError(f"benefit of node {u} must be an integer >= 1, got {b!r}")

    def check_covers(self, g: SocialGraph):
        if len(self.cost) != g.base_node_count:
            raise ValueError(
                f"economics table covers {len(self.cost)} nodes, graph has {g.base_node_count}"
            )


def build_graph(edges, directed: bool) -> SocialGraph:
    """Build a :class:`SocialGraph` from (source, target, probability) triples.

    ``edges`` may be any iterable, a generator included; it is read once.
    Probabilities must lie in (0, 1]; self-loops are rejected.  Duplicate
    (source, target) pairs are collapsed keeping the first occurrence, with
    the collapse count recorded on the graph.  For undirected graphs a pair
    and its reverse are the same edge, and each surviving edge is stored as
    two directed arcs.  A loader that dropped or renamed input records that
    on a :func:`dataclasses.replace` copy of the returned graph.

    While every edge shares the first edge's probability, each node's row is
    a plain list of targets, duplicates included; it is written out as its
    sorted distinct targets, and the graph keeps that one probability as
    ``uniform_p`` with no per-arc list.  At the first edge of another
    probability the rows become target -> probability dicts, and a repeated
    pair is caught as it arrives; the per-arc list is kept unless the
    surviving arcs still share one probability.
    """
    rows = {}
    duplicates = surplus = 0
    first = None
    uniform = True
    for u, v, p in edges:
        if u < 0 or v < 0:
            raise ValueError(f"node ids must be non-negative, got ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"arc probability must be in (0, 1], got {p}")
        if uniform:
            if first is None:
                first = p
            if p == first:
                row = rows.get(u)
                if row is None:
                    rows[u] = [v]
                else:
                    row.append(v)
                if not directed:
                    back = rows.get(v)
                    if back is None:
                        rows[v] = [u]
                    else:
                        back.append(u)
                continue
            uniform = False
            for w, listed in rows.items():
                rows[w] = row = dict.fromkeys(listed, first)
                surplus += len(listed) - len(row)
        row = rows.get(u)
        if row is None:
            row = rows[u] = {}
        elif v in row:
            # an undirected edge sits in both rows, so its reverse lands here too
            duplicates += 1
            continue
        row[v] = p
        if not directed:
            back = rows.get(v)
            if back is None:
                rows[v] = {u: p}
            else:
                back[u] = p

    # a directed graph's largest id may only ever appear as a target
    n = max(max(rows), max(map(max, rows.values()))) + 1 if rows else 0
    offsets = [0] * (n + 1)
    targets = []
    probs = []
    for u in range(n):
        # each row is freed as it is written, so the rows and arrays never both peak
        row = rows.pop(u, None)
        if row:
            if uniform:
                out = sorted(set(row))
                surplus += len(row) - len(out)
            else:
                out = sorted(row)
                probs += map(row.__getitem__, out)
            targets += out
        offsets[u + 1] = len(targets)
    # a duplicate left in the target lists sits in both rows of an undirected edge
    duplicates += surplus if directed else surplus // 2
    if uniform:
        # an empty graph shares no probability: its per-arc list is empty
        uniform_p, probs = first, [] if first is None else None
    elif probs.count(probs[0]) == len(probs):
        # the edges of other probabilities all repeated pairs seen before
        uniform_p, probs = probs[0], None
    else:
        uniform_p = None
    return SocialGraph(n, directed, offsets, targets, probs, uniform_p, [],
                       duplicates_collapsed=duplicates)


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
    compose over the nodes a view still has: excluding A, then B without A,
    equals excluding A | B, but ``exclude_nodes(exclude_nodes(g, {1}), {1, 2})``
    raises "unknown node id 1".
    """
    removed = frozenset(removed)
    for u in removed:
        g._require(u)
    if not removed:
        return g
    return replace(g, removed=g.removed | removed)


def degree(g: SocialGraph, u) -> int:
    """Surviving out-degree (equals neighbor count on undirected graphs).

    The base row's length, less its targets in a view's removed set.
    """
    g._require(u)
    lo, hi = g._offsets[u], g._offsets[u + 1]
    if not g.removed:
        return hi - lo
    return hi - lo - len(g.removed.intersection(g._targets[lo:hi]))


def _removed_in_neighbours(g: SocialGraph) -> dict:
    # each removed node's base in-neighbours.  An undirected graph stores
    # each edge both ways, so a removed node's own row lists them; a directed
    # one finds them in one scan of the arcs
    offsets, targets, removed = g._offsets, g._targets, g.removed
    if not g.directed:
        return {r: targets[offsets[r]:offsets[r + 1]] for r in removed}
    sources = {r: [] for r in removed}
    if removed:
        for s in range(g.base_node_count):
            for r in removed.intersection(targets[offsets[s]:offsets[s + 1]]):
                sources[r].append(s)
    return sources


def degrees(g: SocialGraph) -> dict:
    """:func:`degree` of every surviving node, keyed by node id.

    Each node's base row length, less one for each of its arcs into a
    removed node.  Those arcs are the removed nodes' in-arcs: an undirected
    view reads them off the removed nodes' own rows, a directed one finds
    them in one scan of the arcs.
    """
    offsets = g._offsets
    result = {u: offsets[u + 1] - offsets[u] for u in g.nodes}
    for sources in _removed_in_neighbours(g).values():
        for s in sources:
            if s in result:
                result[s] -= 1
    return result


def _base_among(g: SocialGraph) -> list:
    # ordered neighbour pairs joined by an arc, per node of the base graph.
    # Such a pair and its node form a triangle of the symmetrised graph, so
    # each triangle is listed once: nodes are ranked by (undirected degree,
    # id), and each node keeps one tuple, its higher-ranked neighbours in
    # either direction.  A triangle is found at its lowest-ranked corner a,
    # from a neighbour b of a and a neighbour c of b in a's tuple.  A corner
    # x with arcs to its other corners y and z gains [y->z] + [z->y], so an
    # undirected triangle adds 2 at each corner; a directed one reads its
    # six arc tests off the sorted base rows.  Counted on first use and
    # published whole into the list the base shares with its views, so an
    # interrupted count leaves it empty, not truncated.
    among = g._among
    if not among:
        n, offsets, targets, directed = g.base_node_count, g._offsets, g._targets, g.directed
        # per node, the in-neighbours it has no arc to: with its own row,
        # each of its symmetrised neighbours once
        extra = [()] * n
        if directed:
            extra = [[] for _ in range(n)]
            for u in range(n):
                for v in targets[offsets[u]:offsets[u + 1]]:
                    extra[v].append(u)
            for u in range(n):
                # each reverse row is freed as it is read
                extra[u] = tuple(set(extra[u]).difference(targets[offsets[u]:offsets[u + 1]]))
        rank = [0] * n
        for i, u in enumerate(sorted(range(n), key=lambda v: offsets[v + 1] - offsets[v]
                                     + len(extra[v]))):
            rank[u] = i
        up = []
        for u in range(n):
            r = rank[u]
            up.append(tuple([v for v in chain(targets[offsets[u]:offsets[u + 1]], extra[u])
                             if rank[v] > r]))
            extra[u] = ()  # freed once read, so the two never both peak

        def arc(x, y):
            end = offsets[x + 1]
            i = bisect_left(targets, y, offsets[x], end)
            return i < end and targets[i] == y

        counts = [0] * n
        for a in range(n):
            up_a = set(up[a])
            for b in up[a]:
                for c in up_a.intersection(up[b]):
                    if directed:
                        ab, ba, ac, ca, bc, cb = (arc(a, b), arc(b, a), arc(a, c), arc(c, a),
                                                  arc(b, c), arc(c, b))
                        if ab and ac:
                            counts[a] += bc + cb
                        if ba and bc:
                            counts[b] += ac + ca
                        if ca and cb:
                            counts[c] += ab + ba
                    else:
                        counts[a] += 2
                        counts[b] += 2
                        counts[c] += 2
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

    The base graph's pair counts are made once and shared with its views.
    They come from listing each triangle once, over the edges that run from
    lower to higher (undirected degree, id) rank, with each node holding one
    tuple of its higher-ranked neighbours in either direction; a directed
    triangle's arcs are read off the sorted base rows.  A view corrects only
    the nodes with an arc into its removed set, found among the removed
    nodes' in-neighbours: of the pairs joined by an arc, those with a
    removed end leave the count.  That is the arcs out of the removed
    neighbours plus those into them, less those among them, which both terms
    counted.  Each removed node's out- and in-neighbours become a set once
    per call, and a corrected node intersects its own neighbour set with
    those, so no removed hub's row is walked once per neighbour.
    """
    among = _base_among(g)
    offsets, targets, directed, removed = g._offsets, g._targets, g.directed, g.removed
    in_neighbours = _removed_in_neighbours(g)
    outs = {r: set(targets[offsets[r]:offsets[r + 1]]) for r in in_neighbours}
    # an undirected graph's arcs into a removed node mirror those out of it
    ins = {r: set(sources) for r, sources in in_neighbours.items()} if directed else None
    # each surviving node with an arc into the removed set, with the removed
    # nodes those arcs reach
    cut = {}
    for r, sources in in_neighbours.items():
        for s in sources:
            if s not in removed:
                cut.setdefault(s, []).append(r)
    coefficients = {}
    for u in g.nodes:
        k = offsets[u + 1] - offsets[u]
        among_u = among[u]
        gone = cut.get(u)
        if gone:
            neighbours = set(targets[offsets[u]:offsets[u + 1]])
            k -= len(gone)
            for r in gone:
                out_r = outs[r]
                shared = len(neighbours & out_r)
                into = len(neighbours & ins[r]) if directed else shared
                among_u -= shared + into - len(out_r.intersection(gone))
        coefficients[u] = among_u / (k * (k - 1)) if k >= 2 else 0.0
    return coefficients
