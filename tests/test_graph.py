import pytest
from hypothesis import given, settings, strategies as st

from profitmax.diffusion import _geometric_scale
from profitmax.graph import (
    NodeEconomics,
    build_graph,
    clustering_coefficient,
    clustering_coefficients,
    degree,
    exclude_nodes,
    seed_cost,
)


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


@given(edge_lists, st.booleans())
def test_arc_count_matches_directedness(edges, directed):
    g = build_graph(edges, directed)
    seen = set()
    for u, v, p in edges:
        seen.add((u, v) if directed else (min(u, v), max(u, v)))
    assert g.arc_count == (1 if directed else 2) * len(seen)


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
