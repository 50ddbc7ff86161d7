import re
import tracemalloc
from pathlib import Path

import pytest

from profitmax.graph import build_graph, degree
from profitmax.loader import (
    AttributeSpec,
    generate_attributes,
    load_snap_edge_list,
    preferential_attachment_graph,
)

DATA = Path(__file__).parent / "data"


def test_undirected_fixture_counts():
    g = load_snap_edge_list(DATA / "mini_undirected.txt", directed=False)
    assert g.node_count == 5
    assert g.arc_count == 12  # 6 undirected edges stored both ways
    assert g.self_loops_dropped == 1
    assert g.duplicates_collapsed == 1
    assert g.original_ids == (10, 20, 30, 40, 50)


def test_directed_fixture_counts():
    g = load_snap_edge_list(DATA / "mini_directed.txt", directed=True)
    assert g.node_count == 4
    assert g.arc_count == 4
    assert g.directed


def test_comma_separated_extra_fields():
    g = load_snap_edge_list(DATA / "mini_weighted.csv", directed=True, uniform_probability=0.05)
    assert g.node_count == 4
    assert g.arc_count == 4
    assert all(p == 0.05 for _, _, p in g.arc_list())


def test_uniform_probability_applied():
    g = load_snap_edge_list(DATA / "mini_directed.txt", directed=True)
    assert all(p == 0.01 for _, _, p in g.arc_list())


def test_malformed_line_reports_line_number():
    with pytest.raises(ValueError, match="malformed"):
        load_snap_edge_list(DATA / "malformed.txt", directed=True)
    try:
        load_snap_edge_list(DATA / "malformed.txt", directed=True)
    except ValueError as exc:
        assert ":2:" in str(exc)


def test_non_integer_id_reports_line_number(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_text("0 1\nx 2\n")
    with pytest.raises(ValueError, match=r"ids\.txt:2: malformed edge line: 'x 2'$"):
        load_snap_edge_list(path, directed=True)


def test_empty_file_gives_empty_graph():
    g = load_snap_edge_list(DATA / "empty.txt", directed=False)
    assert g.node_count == 0 and g.arc_count == 0


@pytest.mark.parametrize("p", [7.0, 0.0, -0.5])
def test_probability_checked_before_the_file_is_read(p, tmp_path):
    # an empty file builds no arc, so only a check made up front refuses it,
    # with the message a bad edge gets from build_graph
    with pytest.raises(ValueError) as from_build:
        build_graph([(0, 1, p)], directed=False)
    message = f"^{re.escape(str(from_build.value))}$"
    for path in (DATA / "empty.txt", tmp_path / "missing.txt"):
        with pytest.raises(ValueError, match=message):
            load_snap_edge_list(path, directed=False, uniform_probability=p)


def test_wiki_size_load_streams_its_edges(tmp_path):
    # pa:7115:15:7's 106,605 edges as an edge file, loaded under tracemalloc:
    # holding every (source, target, probability) tuple until the build
    # starts would take about three times what the graph keeps
    g = preferential_attachment_graph(7115, 15, 7)
    lines = [f"{u}\t{v}\n" for u, v, _ in g.arc_list() if u < v]
    assert len(lines) == 106_605
    path = tmp_path / "pa.txt"
    path.write_text("".join(lines), encoding="utf-8")
    del g, lines
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_snap_edge_list(path, directed=False)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.arc_count == 213_210 and len(loaded.original_ids) == 7115
    assert peak - start <= 1.5 * (end - start)


def test_loading_twice_is_identical():
    a = load_snap_edge_list(DATA / "mini_undirected.txt", directed=False)
    b = load_snap_edge_list(DATA / "mini_undirected.txt", directed=False)
    assert a.arc_list() == b.arc_list()
    assert a.original_ids == b.original_ids


def test_attribute_generation():
    g = load_snap_edge_list(DATA / "mini_directed.txt", directed=True)
    spec = AttributeSpec((50, 100), (800, 1000), attribute_seed=4)
    econ = generate_attributes(g, spec)
    assert len(econ.cost) == g.node_count
    assert all(50 <= c <= 100 for c in econ.cost)
    assert all(800 <= b <= 1000 for b in econ.benefit)
    assert econ == generate_attributes(g, spec)

    flat = generate_attributes(g, AttributeSpec((50, 50), (800, 1000), attribute_seed=1))
    assert set(flat.cost) == {50}

    with pytest.raises(ValueError):
        AttributeSpec((0, 10), (800, 1000))
    with pytest.raises(ValueError):
        AttributeSpec((50, 100), (900, 800))


def test_preferential_attachment_fixture():
    g = preferential_attachment_graph(200, 3, seed=7)
    assert g.node_count == 200
    assert not g.directed
    assert g.arc_count == 2 * (6 + 196 * 3)
    again = preferential_attachment_graph(200, 3, seed=7)
    assert g.arc_list() == again.arc_list()
    other = preferential_attachment_graph(200, 3, seed=8)
    assert g.arc_list() != other.arc_list()
    assert min(degree(g, u) for u in g.nodes) >= 3

    with pytest.raises(ValueError):
        preferential_attachment_graph(2, 3, seed=1)
