"""Graph container, input guards, components, and the smallest-last order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (complete_graph, cycle_graph, gnp, graphs, path_graph,
                      random_forest, star_graph)
from zetakit.graph import (GraphInputError, build_graph, closed_neighborhood,
                           connected_components, is_forest, remove_vertices,
                           smallest_last_order)
from zetakit.cli import (GraphDocument, parse_dimacs, parse_edge_list, serialize_dimacs,
                         serialize_edge_list)
from zetakit.oracle import GeneratorSpec, generate, layered_example_graph


def test_build_rejects_self_loop():
    with pytest.raises(GraphInputError, match="self-loop"):
        build_graph(3, [(0, 1), (2, 2)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphInputError, match="out of range"):
        build_graph(2, [(0, 5)])
    with pytest.raises(GraphInputError):
        build_graph(2, [(-1, 0)])


def test_build_rejects_negative_n():
    with pytest.raises(GraphInputError):
        build_graph(-1, [])


def test_duplicate_edges_merge():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.degree(0) == g.degree(1) == 1


def test_triangle_counts():
    g = complete_graph(3)
    assert g.n == 3 and g.m == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_showcase_graph_edge_count():
    # complete joins between layers of sizes 1..4: 1*2 + 2*3 + 3*4 = 20
    assert layered_example_graph(2).m == 20


@given(graphs(max_n=14))
def test_edges_and_degrees_consistent(g):
    edges = list(g.edges())
    assert len(edges) == g.m
    assert all(u < v for u, v in edges)
    assert sum(g.degrees()) == 2 * g.m
    for u, v in edges:
        assert g.has_edge(u, v) and g.has_edge(v, u)


@given(graphs(max_n=14))
def test_remove_nothing_is_identity(g):
    sub = remove_vertices(g, ())
    assert sub.graph.n == g.n and sub.graph.m == g.m
    assert sub.graph.adj == g.adj
    assert list(sub.old_of) == list(range(g.n))


@given(graphs(max_n=14), st.data())
def test_remove_vertices_relabels_consistently(g, data):
    drop = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    drop = {v for v in drop if v < g.n}
    sub = remove_vertices(g, drop)
    assert sub.graph.n == g.n - len(drop)
    # surviving adjacency must match the original, edge for edge
    for x in range(sub.graph.n):
        old = sub.old_of[x]
        expect = {u for u in g.adj[old] if u not in drop}
        assert {sub.old_of[y] for y in sub.graph.adj[x]} == expect


@given(graphs(max_n=14), st.data())
def test_closed_neighborhood_contains_seed(g, data):
    if g.n == 0:
        return
    s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    closed = closed_neighborhood(g, s)
    assert s <= closed
    assert closed == s | {u for v in s for u in g.adj[v]}


@given(graphs(max_n=14))
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))
    # no edge may leave its component
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    assert all(comp_of[u] == comp_of[v] for u, v in g.edges())


def test_is_forest_on_known_shapes():
    assert is_forest(path_graph(7))
    assert is_forest(star_graph(5))
    assert is_forest(build_graph(4, []))
    assert not is_forest(cycle_graph(5))
    assert not is_forest(complete_graph(4))


def test_empty_graph_is_a_forest():
    assert is_forest(build_graph(0, []))


def forest_by_components(g):
    """Every component has one edge fewer than it has vertices."""
    return all(sum(len(g.adj[v]) for v in comp) == 2 * (len(comp) - 1)
               for comp in connected_components(g))


def test_is_forest_matches_component_count_exhaustive(dedup_suite):
    for n in range(1, 8):
        for g in dedup_suite[n]:
            assert is_forest(g) == forest_by_components(g), g.edges()


@given(graphs(min_n=0, max_n=24, ps=(0.0, 0.05, 0.1, 0.25, 0.5)))
def test_is_forest_matches_component_count(g):
    assert is_forest(g) == forest_by_components(g)


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_random_forest_builder_is_forest(n, seed):
    assert is_forest(random_forest(n, seed))


def _brute_residuals(g, order):
    # degree of order[i] among the not-yet-removed suffix
    out = []
    alive = set(order)
    for v in order:
        out.append(len(g.adj[v] & alive))
        alive.discard(v)
    return out


@given(graphs(max_n=16))
@settings(max_examples=60)
def test_smallest_last_residual_degrees(g):
    res = smallest_last_order(g)
    assert sorted(res.order) == list(range(g.n))
    assert list(res.residual_degrees) == _brute_residuals(g, res.order)


@given(graphs(max_n=16))
@settings(max_examples=60)
def test_smallest_last_is_greedy_minimum(g):
    res = smallest_last_order(g)
    alive = set(res.order)
    for v, d in zip(res.order, res.residual_degrees):
        assert d == min(len(g.adj[u] & alive) for u in alive)
        alive.discard(v)


def _invariant_graphs():
    # every id past 256 is outside CPython's small-int cache, so a fresh int
    # per adjacency entry shows as more objects than ids
    yield pytest.param(gnp(400, 0.02, 3), id="build_graph")
    for spec in (GeneratorSpec("path", n=300), GeneratorSpec("cycle", n=300),
                 GeneratorSpec("star", n=300), GeneratorSpec("random-gnp", n=400, p=0.02, seed=1),
                 GeneratorSpec("random-forest", n=400, seed=2), GeneratorSpec("example1", k=12),
                 GeneratorSpec("family-F", sizes=(40,) * 8, extra_edges=30, seed=1),
                 GeneratorSpec("disjoint-cliques", sizes=(30,) * 10)):
        yield pytest.param(generate(spec), id=f"generate-{spec.family}")
    g = gnp(400, 0.02, 4)
    doc = GraphDocument(g, tuple(map(str, range(g.n))), "edges")
    text = serialize_dimacs(doc)
    yield pytest.param(parse_dimacs(text).graph, id="parse_dimacs")
    # ids that start with 3 spelt "+03...", which the label map does not hold
    yield pytest.param(parse_dimacs(text.replace(" 3", " +03")).graph, id="parse_dimacs-spellings")
    yield pytest.param(parse_edge_list(serialize_edge_list(doc)).graph, id="parse_edge_list")
    yield pytest.param(remove_vertices(g, range(0, g.n, 3)).graph, id="remove_vertices")


@pytest.mark.parametrize("g", _invariant_graphs())
def test_one_int_object_per_vertex_id(g):
    assert g.n > 257
    entries = [u for a in g.adj for u in a]
    assert len({id(u) for u in entries}) == len(set(entries))


def test_smallest_last_specific():
    # pendant comes off first, then the triangle at residual degree 2
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    res = smallest_last_order(g)
    assert res.order[0] == 3
    assert max(res.residual_degrees) == 2


@given(gnp_seed=st.integers(0, 10**6))
def test_gnp_helper_within_bounds(gnp_seed):
    g = gnp(9, 0.4, gnp_seed)
    assert g.n == 9
    assert g.m <= 36
