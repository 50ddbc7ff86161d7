import dataclasses
import hashlib
import pickle
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from profitmax.diffusion import _geometric_scale, sample_live_graphs
from profitmax.graph import (
    NodeEconomics,
    SocialGraph,
    _base_among,
    build_graph,
    clustering_coefficient,
    clustering_coefficients,
    degree,
    degrees,
    exclude_nodes,
    seed_cost,
)
from profitmax.loader import (
    AttributeSpec,
    generate_attributes,
    load_snap_edge_list,
    preferential_attachment_graph,
)
from profitmax.rng import RandomSource
from profitmax.selection import baseline_random, single_greedy

DATA = Path(__file__).parent / "data"


def test_empty_graph():
    g = build_graph([], directed=True)
    assert g.node_count == 0
    assert g.arc_count == 0
    assert g.arc_list() == []


def test_undirected_edge_stored_both_ways():
    g = build_graph([(0, 1, 0.5)], directed=False)
    assert g.arc_count == 2
    assert sorted(g.arc_list()) == [(0, 1, 0.5), (1, 0, 0.5)]


@pytest.mark.parametrize("p", [1.2, 0.0, -0.1])
def test_probability_out_of_range_rejected(p):
    with pytest.raises(ValueError):
        build_graph([(0, 1, p)], directed=True)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        build_graph([(2, 2, 0.5)], directed=True)


@pytest.mark.parametrize("bad", [(2, 2, 0.5), (3, -1, 0.5), (1, 3, 1.5)],
                         ids=["self-loop", "negative-id", "probability"])
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_streamed_bad_edge_raises_as_the_list_does(bad, directed):
    # the edge is read after good ones have filled rows: a generator is
    # checked while it streams, and fails with the list's message
    edges = [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5), bad, (0, 3, 0.5)]
    with pytest.raises(ValueError) as from_list:
        build_graph(edges, directed)
    with pytest.raises(ValueError, match=f"^{re.escape(str(from_list.value))}$"):
        build_graph((e for e in edges), directed)


def test_duplicates_collapse_keeping_first():
    g = build_graph([(0, 1, 0.5), (0, 1, 0.9)], directed=True)
    assert g.arc_list() == [(0, 1, 0.5)]
    assert g.duplicates_collapsed == 1


def test_undirected_reverse_pair_is_duplicate():
    g = build_graph([(0, 1, 0.5), (1, 0, 0.5)], directed=False)
    assert g.arc_count == 2
    assert g.duplicates_collapsed == 1


def test_seed_cost_examples():
    econ = NodeEconomics((50, 100), (800, 900))
    assert seed_cost(econ, set()) == 0
    assert seed_cost(econ, {0}) == 50
    assert seed_cost(econ, {0, 1}) == 150
    with pytest.raises(ValueError):
        seed_cost(econ, {5})


def test_economics_validation():
    with pytest.raises(ValueError):
        NodeEconomics((0, 1), (1, 1))
    with pytest.raises(ValueError):
        NodeEconomics((1, 1), (1, 0))
    with pytest.raises(ValueError):
        NodeEconomics((1,), (1, 1))


def test_economics_must_be_integers():
    # a float benefit would reach the selectors' integer gain arrays, and a
    # float cost their exact integer rule; a bool is no count either
    with pytest.raises(ValueError, match=r"cost of node 1 must be an integer >= 1, got 1\.5$"):
        NodeEconomics((2, 1.5), (3, 3))
    with pytest.raises(ValueError, match=r"benefit of node 0 must be an integer >= 1, got 2\.0$"):
        NodeEconomics((2, 2), (2.0, 3))
    with pytest.raises(ValueError, match=r"cost of node 2 must be an integer >= 1, got True$"):
        NodeEconomics((2, 2, True), (3, 3, 3))


def _path3():
    return build_graph([(0, 1, 0.5), (1, 2, 0.5)], directed=True)


def test_exclude_nothing_is_identity():
    g = _path3()
    view = exclude_nodes(g, set())
    assert view.nodes == g.nodes
    assert view.arc_list() == g.arc_list()


def test_exclude_middle_of_path():
    view = exclude_nodes(_path3(), {1})
    assert view.nodes == [0, 2]
    assert view.arc_count == 0


def test_exclude_everything():
    g = _path3()
    view = exclude_nodes(g, {0, 1, 2})
    assert view.nodes == []
    assert view.arc_count == 0
    assert g.node_count == 3  # original untouched


def test_exclude_unknown_node():
    with pytest.raises(ValueError):
        exclude_nodes(_path3(), {9})


def test_view_keeps_base_sampling_mode():
    uniform = build_graph([(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1)], directed=True)
    mixed = build_graph([(0, 1, 0.5), (1, 2, 0.1), (2, 3, 0.1)], directed=True)
    assert _geometric_scale(uniform) is not None
    assert _geometric_scale(mixed) is None
    for g in (uniform, mixed):
        # the view shares the base arrays, so it keeps the base's sampler even
        # where its surviving arcs all share one probability
        view = exclude_nodes(g, {0})
        assert _geometric_scale(view) == _geometric_scale(g)


def test_a_graph_is_frozen():
    # nothing assigns to a graph once it is built: a view and a loaded
    # graph's id table and self-loop count come from dataclasses.replace
    g = _path3()
    loaded = load_snap_edge_list(DATA / "mini_undirected.txt", directed=False)
    view = exclude_nodes(loaded, {0})
    for h in (g, exclude_nodes(g, {1}), loaded, view):
        for field in dataclasses.fields(h):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, field.name, getattr(h, field.name))
    assert view.original_ids == (10, 20, 30, 40, 50)
    assert (view.self_loops_dropped, view.duplicates_collapsed) == (1, 1)


def test_a_graph_repr_names_its_kind_size_and_removed_count():
    undirected = build_graph([(0, 1, 0.5), (1, 2, 0.5)], directed=False)
    assert repr(undirected) == "SocialGraph(undirected, nodes=3, arcs=4)"
    assert repr(exclude_nodes(undirected, {1})) == \
        "SocialGraph(undirected, nodes=2, arcs=0, removed=1)"
    assert repr(_path3()) == "SocialGraph(directed, nodes=3, arcs=2)"


def test_a_graph_survives_a_pickle_round_trip():
    # a spawn or forkserver pool pickles the graph it hands each worker.
    # The base goes before its table is counted and the view after, so
    # both an empty and a full shared table make the trip
    base = preferential_attachment_graph(200, 3, 7)
    hubs = sorted(base.nodes, key=lambda u: (-degree(base, u), u))[:5]
    loaded = load_snap_edge_list(DATA / "mini_undirected.txt", directed=False)
    for g in (base, exclude_nodes(base, hubs), loaded):
        copy = pickle.loads(pickle.dumps(g))
        assert type(copy) is SocialGraph and copy is not g
        for field in dataclasses.fields(g):
            assert getattr(copy, field.name) == getattr(g, field.name), field.name
        assert clustering_coefficients(copy) == clustering_coefficients(g)


def test_degree_and_clustering_examples():
    # node 3 isolated, nodes 0-2 a triangle, node 4 star center of 5,6,7
    edges = [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5),
             (4, 5, 0.5), (4, 6, 0.5), (4, 7, 0.5), (3, 8, 0.5)]
    g = build_graph(edges, directed=False)
    view = exclude_nodes(g, {8})
    assert degree(view, 3) == 0
    assert clustering_coefficient(view, 3) == 0.0
    assert clustering_coefficient(g, 0) == 1.0
    assert degree(g, 4) == 3
    assert clustering_coefficient(g, 4) == 0.0
    with pytest.raises(ValueError):
        degree(g, 99)


# -- properties ----------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7),
              st.floats(0.05, 1.0, allow_nan=False)),
    max_size=16,
).map(lambda es: [(u, v, p) for u, v, p in es if u != v])


@given(edge_lists, st.booleans(), st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_arc_count_matches_directedness(edges, directed, removed, more):
    g = build_graph(edges, directed)
    seen = set()
    for u, v, p in edges:
        seen.add((u, v) if directed else (min(u, v), max(u, v)))
    assert g.arc_count == (1 if directed else 2) * len(seen)
    view = exclude_nodes(g, removed & set(g.nodes))
    nested = exclude_nodes(view, more & set(view.nodes))
    for h in (g, view, nested):
        assert h.arc_count == len(h.arc_list())


@given(edge_lists, st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_exclusion_composes(edges, first, second):
    g = build_graph(edges, directed=True)
    nodes = set(g.nodes)
    first &= nodes
    second &= nodes
    stepwise = exclude_nodes(exclude_nodes(g, first), second - first)
    joint = exclude_nodes(g, first | second)
    assert stepwise.nodes == joint.nodes
    assert stepwise.arc_list() == joint.arc_list()


@given(st.lists(st.integers(1, 100), min_size=1, max_size=10), st.data())
def test_seed_cost_additive_over_disjoint_sets(costs, data):
    econ = NodeEconomics(tuple(costs), tuple([1] * len(costs)))
    ids = list(range(len(costs)))
    a = data.draw(st.sets(st.sampled_from(ids)))
    b = data.draw(st.sets(st.sampled_from(ids))) - a
    assert seed_cost(econ, a | b) == seed_cost(econ, a) + seed_cost(econ, b)


def _clustering_by_arc_scan(g, u):
    # the per-neighbor out_arcs scan that the set intersection replaced
    neighbors = {v for v, _ in g.out_arcs(u)}
    k = len(neighbors)
    if k < 2:
        return 0.0
    among = 0
    for w in neighbors:
        for x, _ in g.out_arcs(w):
            if x != w and x in neighbors:
                among += 1
    return among / (k * (k - 1))


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
       st.booleans(), st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)),
       st.booleans())
def test_clustering_matches_arc_scan(pairs, directed, removed, more, view_first):
    drawn = {(u, v) for u, v in pairs if u != v}
    # the complement is dense where the drawn graph is sparse, so removed
    # neighbours joined to each other turn up as well
    complement = {(u, v) for u in range(8) for v in range(8) if u != v} - drawn
    for arcs in (drawn, complement):
        g = build_graph([(u, v, 0.5) for u, v in sorted(arcs)], directed)
        view = exclude_nodes(g, removed & set(g.nodes))
        nested = exclude_nodes(view, more & set(view.nodes))
        # whichever graph comes first fills the table the others share
        for h in ((view, nested, g) if view_first else (g, view, nested)):
            expected = {u: _clustering_by_arc_scan(h, u) for u in h.nodes}
            assert clustering_coefficients(h) == expected
            assert {u: clustering_coefficient(h, u) for u in h.nodes} == expected


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
       st.booleans(), st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_degree_matches_arc_scan(pairs, directed, removed, more):
    g = build_graph([(u, v, 0.5) for u, v in sorted({(u, v) for u, v in pairs if u != v})],
                    directed)
    view = exclude_nodes(g, removed & set(g.nodes))
    nested = exclude_nodes(view, more & set(view.nodes))
    for h in (g, view, nested):
        assert [degree(h, u) for u in h.nodes] == [len(h.out_arcs(u)) for u in h.nodes]
        for u in h.removed:
            with pytest.raises(ValueError):
                degree(h, u)


def test_clustering_table_built_once_per_base_graph():
    # clique on 0-3 with a pendant 4 on node 0; node 1's base count is 6
    clique = [(u, v, 0.5) for u in range(4) for v in range(u + 1, 4)]
    g = build_graph(clique + [(0, 4, 0.5)], directed=False)
    view = exclude_nodes(g, {4})
    nested = exclude_nodes(view, {3})
    assert clustering_coefficients(view)[1] == 1.0
    assert view._among is g._among and nested._among is g._among
    # a graph that rebuilt the table, or kept its own, would not see this edit
    g._among[1] = 4
    for h, expected in ((g, 4 / 6), (view, 4 / 6), (nested, 0.0)):
        assert clustering_coefficients(h)[1] == expected
        assert clustering_coefficient(h, 1) == expected


def _build_by_key_set(edges, directed):
    # the tuple-key set and per-node (target, probability) lists that the
    # per-node rows replaced: (offsets, targets, probs, uniform_p, duplicates, n)
    adj, seen, duplicates, max_node = {}, set(), 0, -1
    for u, v, p in edges:
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        adj.setdefault(u, []).append((v, p))
        if not directed:
            adj.setdefault(v, []).append((u, p))
        max_node = max(max_node, u, v)
    offsets, targets, probs = [0], [], []
    for u in range(max_node + 1):
        for v, p in sorted(adj.get(u, ())):
            targets.append(v)
            probs.append(p)
        offsets.append(len(targets))
    uniform_p = probs[0] if probs and all(p == probs[0] for p in probs) else None
    return offsets, targets, probs, uniform_p, duplicates, max_node + 1


@st.composite
def messy_edge_lists(draw):
    # ids with gaps, pairs repeated as drawn or reversed, and largest ids
    # that only ever appear as targets.  Every edge before a drawn position
    # shares one probability and those after it mix; repeats, reversals and
    # target-only ids fall on both sides, and a repeat after the position may
    # be of a pair first seen before it
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=8, unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
    probability = st.sampled_from((0.01, 0.25, 0.5, 1.0))

    def side(earlier):
        pairs = draw(st.lists(pair, max_size=10))
        if earlier + pairs:
            again = draw(st.lists(st.tuples(st.sampled_from(earlier + pairs), st.booleans()),
                                  max_size=6))
            pairs += [(v, u) if flip else (u, v) for (u, v), flip in again]
        sink = max(ids) + draw(st.integers(1, 3))
        pairs += [(u, sink) for u in draw(st.lists(st.sampled_from(ids), max_size=2))]
        return draw(st.permutations(pairs))

    before = side([])
    after = side(before)
    shared = draw(probability)
    return [(u, v, shared) for u, v in before] + [(u, v, draw(probability)) for u, v in after]


@settings(max_examples=300)
@given(messy_edge_lists(), st.booleans())
def test_build_matches_key_set_reference(edges, directed):
    # a list and a one-shot iterator over it build the same graph; a graph
    # whose arcs share one probability keeps no per-arc list
    expected = _build_by_key_set(edges, directed)
    for given_edges in (edges, iter(edges)):
        g = build_graph(given_edges, directed)
        assert (g._offsets, g._targets, [p for *_, p in g.arc_list()], g._uniform_p,
                g.duplicates_collapsed, g.base_node_count) == expected
        assert (g._probs is None) == (expected[3] is not None)


def _among_by_intersection(g):
    # each node's neighbour set intersected with every neighbour's full row,
    # the count that triangle listing replaced
    rows = [set(g._targets[g._offsets[u]:g._offsets[u + 1]]) for u in range(g.base_node_count)]
    return [sum(len(row & rows[w]) for w in row) for row in rows]


@settings(max_examples=200)
@given(st.sets(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=90),
       st.booleans(), st.integers(0, 13))
def test_triangle_count_matches_intersection(arcs, directed, hub):
    # dense draws over 14 nodes give degree ties and many triangles; on a
    # directed graph the hub's arcs out to every other node are mostly one-way
    arcs = {(u, v) for u, v in arcs if u != v}
    arcs |= {(hub, v) for v in range(14) if v != hub and (v, hub) not in arcs}
    g = build_graph([(u, v, 0.5) for u, v in sorted(arcs)], directed)
    assert _base_among(g) == _among_by_intersection(g)


@pytest.fixture(scope="module")
def wiki_size():
    # the pa:7115:15:7 stand-in for wiki-Vote, built once for the tests that
    # only read it
    return preferential_attachment_graph(7115, 15, 7)


def test_wiki_size_fixture_pinned(wiki_size):
    # the pa:7115:15:7 stand-in for wiki-Vote; the digest of its arrays and
    # per-node pair counts was taken from the key-set build and the per-node
    # intersection count
    g = wiki_size
    among = _base_among(g)
    arcs = g.arc_list()
    assert len(arcs) == 213_210 and g.duplicates_collapsed == 0
    assert sum(u < v for u, v, _ in arcs) == 106_605
    assert max(degree(g, u) for u in g.nodes) == 546
    assert sum(among) == 262_464
    digest = hashlib.sha256(repr((g._offsets, g._targets, [p for *_, p in arcs], among)).encode())
    assert digest.hexdigest()[:16] == "5b6a675c368c0e44"
    # each edge again as both of its arcs: every second one is a duplicate
    again = build_graph(arcs, directed=False)
    assert again.duplicates_collapsed == 106_605
    assert (again._offsets, again._targets, again._probs) == (g._offsets, g._targets, g._probs)


def test_wiki_size_build_and_pair_count_memory():
    # the pa:7115:15:7 stand-in for wiki-Vote, under tracemalloc, which
    # counts the same bytes on every supported Python: per-node row dicts
    # in the build, or every node's full neighbour set in the pair count,
    # would take several times what the graph keeps, and a per-arc list of
    # its one probability would keep 1.6 MiB more
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = preferential_attachment_graph(7115, 15, 7)
        built, peak = tracemalloc.get_traced_memory()
        kept, build_peak = built - start, peak - start
        tracemalloc.reset_peak()
        _base_among(g)
        count_peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert kept <= 2.5 * 2 ** 20
    assert build_peak <= 1.5 * kept
    assert count_peak <= 2 * kept


def test_wiki_size_trace_memory(wiki_size):
    # the pa:7115:15:7 stand-in with the benchmark's attributes, under
    # tracemalloc: a budget of 500 fits a handful of nodes, so nearly every
    # one of the 7,115 entries is an unaffordable candidate.  A tuple of
    # entry objects, each pinning its own round and node ints, keeps about
    # 154 bytes an entry; the columns keep 10
    g = wiki_size
    econ = generate_attributes(g, AttributeSpec(cost_range=(50, 100), benefit_range=(800, 1000),
                                                attribute_seed=11))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = baseline_random(g, econ, 500, RandomSource(3))
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(out.trace) == 7115
    assert kept <= 16 * len(out.trace)


def test_wiki_size_directed_pair_count_pinned(wiki_size):
    # a directed 60% arc subsample of the pa:7115:15:7 stand-in, under
    # tracemalloc; the digest was taken from the count that kept per-pair arc
    # sets.  Every node's full neighbour set would take several times what
    # the graph keeps
    keep = random.Random(5).random
    arcs = [arc for arc in wiki_size.arc_list() if keep() < 0.6]
    assert len(arcs) == 127_991
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = build_graph(arcs, directed=True)
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        among = _base_among(g)
        count_peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert sum(among) == 55_834
    assert hashlib.sha256(repr(among).encode()).hexdigest()[:16] == "962aa96a4d0210dc"
    assert count_peak <= 2.5 * (built - start)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
       st.booleans(), st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_degrees_match_per_node_degree(pairs, directed, removed, more):
    drawn = {(u, v) for u, v in pairs if u != v}
    # the complement gives dense graphs, where removed nodes share neighbours
    complement = {(u, v) for u in range(8) for v in range(8) if u != v} - drawn
    for arcs in (drawn, complement):
        g = build_graph([(u, v, 0.5) for u, v in sorted(arcs)], directed)
        view = exclude_nodes(g, removed & set(g.nodes))
        nested = exclude_nodes(view, more & set(view.nodes))
        for h in (g, view, nested):
            assert degrees(h) == {u: degree(h, u) for u in h.nodes}


def test_wiki_size_view_queries_pinned(wiki_size):
    # pa:7115:15:7 without its 40 highest-degree nodes, the hubs a
    # high-degree phase one seeds; the digests were taken from the per-node
    # degree and the whole-arc-scan clustering correction
    g = wiki_size
    hubs = sorted(g.nodes, key=lambda u: (-degree(g, u), u))[:40]
    view = exclude_nodes(g, hubs)
    digest = lambda table: hashlib.sha256(repr(table).encode()).hexdigest()[:16]
    degree_table = degrees(view)
    assert len(degree_table) == 7075 and sum(degree_table.values()) == 186_074
    assert digest(degree_table) == "1cf8f3cad8ae8e20"
    assert digest(clustering_coefficients(view)) == "c7baa5b58358b0a5"


def test_wiki_size_single_greedy_pinned(wiki_size):
    # single greedy on the pa:7115:15:7 stand-in with the benchmark's
    # attributes and one R=100 sample of master seed 5's snapshots stream:
    # on the whole graph at B=500, and, as phase two selects, without the 40
    # highest-degree nodes and with 10 of their neighbours as the frontier at
    # B=1000.  The seeds and trace digests were taken when an accepted node's
    # reach was walked again for its add
    g = wiki_size
    econ = generate_attributes(g, AttributeSpec(cost_range=(50, 100), benefit_range=(800, 1000),
                                                attribute_seed=11))
    sample = sample_live_graphs(g, 100, RandomSource(5).stream("snapshots"))
    hubs = sorted(g.nodes, key=lambda u: (-degree(g, u), u))[:40]
    frontier = frozenset(sorted({v for h in hubs for v, _ in g.out_arcs(h)} - set(hubs))[:10])
    digest = lambda trace: hashlib.sha256(repr(trace).encode()).hexdigest()[:16]
    whole = single_greedy(g, econ, 500, sample)
    assert whole.seeds == (0, 2, 3, 4, 8, 9, 20, 22)
    assert digest(whole.trace) == "dc25525021451a2b"
    phase_two = single_greedy(exclude_nodes(g, hubs), econ, 1000, sample, frontier)
    assert phase_two.seeds == (49, 56, 63, 64, 65, 69, 80, 82, 87, 110, 116, 128, 129, 130,
                               209, 213, 254)
    assert digest(phase_two.trace) == "78c8ae3ca6684444"
