"""Dataset ingestion, node-attribute generation, and synthetic fixtures."""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, replace
from itertools import islice

from .graph import NodeEconomics, SocialGraph, build_graph
from .rng import RandomSource

__all__ = [
    "AttributeSpec",
    "load_snap_edge_list",
    "generate_attributes",
    "preferential_attachment_graph",
]

log = logging.getLogger(__name__)


def load_snap_edge_list(path, directed: bool, uniform_probability: float = 0.01) -> SocialGraph:
    """Load a SNAP-style edge list into a graph with dense remapped ids.

    Lines hold a source and target id separated by whitespace or commas (extra
    fields such as ratings or timestamps are ignored); lines starting with
    ``#`` or ``%`` are comments.  Original ids are remapped to dense 0-based
    ids in order of first appearance; the table is kept on the graph.
    Self-loop lines are dropped with a count, duplicate edges collapse to the
    first occurrence.  Every arc gets ``uniform_probability``, which is
    checked before the file is read.  The edges stream into
    :func:`build_graph` as the lines are read, never held as one list.
    """
    if not 0.0 < uniform_probability <= 1.0:
        raise ValueError(f"arc probability must be in (0, 1], got {uniform_probability}")
    remap = {}
    self_loops = 0

    def edges():
        nonlocal self_loops
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line[0] in "#%":
                    continue
                parts = line.replace(",", " ").split()
                if len(parts) < 2:
                    raise ValueError(f"{path}:{lineno}: malformed edge line: {line!r}")
                try:
                    a, b = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed edge line: {line!r}") from None
                if a == b:
                    self_loops += 1
                    continue
                for x in (a, b):
                    if x not in remap:
                        remap[x] = len(remap)
                yield remap[a], remap[b], uniform_probability

    g = build_graph(edges(), directed)
    # the remap table lists the original ids in order of first appearance
    g = replace(g, original_ids=tuple(remap), self_loops_dropped=self_loops)
    if not g.arc_count:
        log.warning("%s: no edges found, building an empty graph", path)
    if self_loops:
        log.warning("%s: dropped %d self-loop line(s)", path, self_loops)
    if g.duplicates_collapsed:
        log.warning("%s: collapsed %d duplicate edge(s)", path, g.duplicates_collapsed)
    log.info("%s: %d nodes, %d arcs (%s)", path, g.node_count, g.arc_count,
             "directed" if directed else "undirected")
    return g


@dataclass(frozen=True)
class AttributeSpec:
    """Integer ranges for per-node incentive cost and earnable benefit."""

    cost_range: tuple[int, int] = (50, 100)
    benefit_range: tuple[int, int] = (800, 1000)
    attribute_seed: int = 0

    def __post_init__(self):
        for name, bounds in (("cost", self.cost_range), ("benefit", self.benefit_range)):
            if [type(b) for b in bounds] != [int, int] or not 1 <= bounds[0] <= bounds[1]:
                raise ValueError(f"invalid {name} range {list(bounds)}: need two integers 1 <= lo <= hi")


def generate_attributes(g: SocialGraph, spec: AttributeSpec) -> NodeEconomics:
    """Independent uniform integer draws per node, deterministic per seed."""
    source = RandomSource(spec.attribute_seed)
    cost_rnd = source.stream("cost")
    benefit_rnd = source.stream("benefit")
    n = g.base_node_count
    costs = tuple(cost_rnd.randint(*spec.cost_range) for _ in range(n))
    benefits = tuple(benefit_rnd.randint(*spec.benefit_range) for _ in range(n))
    return NodeEconomics(costs, benefits)


def preferential_attachment_graph(node_count: int, attach: int, seed: int,
                                  probability: float = 0.01) -> SocialGraph:
    """Undirected preferential-attachment graph, deterministic for a seed.

    Starts from a complete core of ``attach`` + 1 nodes; each later node links
    to ``attach`` distinct earlier nodes drawn proportionally to degree.  The
    edges stream into :func:`build_graph` as they are drawn, never held as one
    list.  Each draw of a stub index below ``m`` takes ``getrandbits(k)`` with
    ``k = m.bit_length()`` until a value falls below ``m``, the rule
    ``randrange(m)`` follows, so a seed gives the same edges in the same order.

    Stub ``2k`` is edge k's source and stub ``2k + 1`` its target.  Only the
    targets are kept, as 4-byte ints; the core edges' sources are listed, and
    each later node's ``2 * attach`` source stubs follow the core's in node
    order.  Ids reach the rows through one shared list of ints, so the rows
    hold one int object per node.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    core = attach + 1
    if node_count < core:
        raise ValueError(f"need at least {core} nodes for attach={attach}")
    getrandbits = RandomSource(seed).stream("preferential-attachment").getrandbits

    def edges():
        ids = list(range(node_count))
        heads = array("i")
        tails = []
        for u in islice(ids, core):
            for v in islice(ids, u):
                yield u, v, probability
                tails.append(u)
                heads.append(v)
        core_stubs = m = 2 * len(tails)
        step = 2 * attach
        for u in islice(ids, core, None):
            k = m.bit_length()
            chosen = set()
            # every stub is an earlier node's, so none is u
            while len(chosen) < attach:
                i = getrandbits(k)
                while i >= m:
                    i = getrandbits(k)
                if i & 1:
                    chosen.add(heads[i >> 1])
                elif i < core_stubs:
                    chosen.add(tails[i >> 1])
                else:
                    chosen.add(core + (i - core_stubs) // step)
            for v in sorted(chosen):
                v = ids[v]
                yield u, v, probability
                heads.append(v)
            m += step

    return build_graph(edges(), directed=False)
