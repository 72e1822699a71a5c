"""Zeta profiles, cheap vertices, and the layer decomposition."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (complete_bipartite, complete_graph, cycle_graph, gnp,
                      graphs, path_graph, star_graph)
from zetakit.degeneracy import (Residual, cheap_layers, cheap_vertices,
                                is_zeta_regular, layer_decomposition, zeta_oracle,
                                zeta_profile)
from zetakit.graph import GraphInputError, build_graph, remove_vertices


def subset_max_zeta(g):
    """zeta(v) = max over vertex sets S containing v of the min degree in G[S]."""
    best = [0] * g.n
    for r in range(1, g.n + 1):
        for s in combinations(range(g.n), r):
            ss = set(s)
            dmin = min(len(g.adj[v] & ss) for v in s)
            for v in s:
                if dmin > best[v]:
                    best[v] = dmin
    return best


@given(graphs(max_n=20))
@settings(max_examples=150)
def test_profile_matches_peeling_oracle(g):
    assert list(zeta_profile(g).zeta) == list(zeta_oracle(g))


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_profile_matches_subset_definition(g):
    assert list(zeta_profile(g).zeta) == subset_max_zeta(g)


@given(graphs(max_n=16))
def test_zeta_between_zero_and_degree(g):
    prof = zeta_profile(g)
    dmin = min(g.degrees(), default=0)
    for v in range(g.n):
        assert dmin <= prof.zeta[v] <= g.degree(v)
        if not g.adj[v]:
            assert prof.zeta[v] == 0


@given(graphs(max_n=14), st.data())
def test_zeta_monotone_under_induced_subgraphs(g, data):
    if g.n == 0:
        return
    drop = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
    sub = remove_vertices(g, drop)
    prof_g = zeta_profile(g)
    prof_h = zeta_profile(sub.graph)
    for x in range(sub.graph.n):
        assert prof_h.zeta[x] <= prof_g.zeta[sub.old_of[x]]


@given(graphs(max_n=16))
def test_prefix_max_along_order_is_nondecreasing(g):
    prof = zeta_profile(g)
    run = [prof.zeta[v] for v in prof.order.order]
    assert all(a <= b for a, b in zip(run, run[1:]))
    assert prof.degeneracy == (max(prof.zeta) if g.n else 0)


@given(graphs(max_n=16))
def test_min_degree_vertices_are_cheap(g):
    if g.n == 0:
        return
    cheap = cheap_vertices(g)
    dmin = min(g.degrees())
    for v in range(g.n):
        if g.degree(v) == dmin:
            assert v in cheap


@given(graphs(max_n=16))
def test_cheap_definition(g):
    prof = zeta_profile(g)
    cheap = cheap_vertices(g, prof)
    for u in range(g.n):
        is_cheap = (prof.zeta[u] == g.degree(u)
                    and all(prof.zeta[w] >= prof.zeta[u] for w in g.adj[u]))
        assert (u in cheap) == is_cheap


def rebuilt_layers(g):
    """Reference decomposition: the cheap set of each rebuilt, recomputed residual."""
    layers = []
    work, old = g, list(range(g.n))
    while work.n:
        cheap = cheap_vertices(work)
        layers.append(frozenset(old[v] for v in cheap))
        sub = remove_vertices(work, cheap)
        work, old = sub.graph, [old[o] for o in sub.old_of]
    return tuple(layers)


@given(graphs(max_n=16))
@settings(max_examples=60)
def test_layers_partition_and_recompute(g):
    dec = layer_decomposition(g)
    flat = [v for layer in dec.layers for v in layer]
    assert sorted(flat) == list(range(g.n))
    assert all(dec.layer_of[v] == i
               for i, layer in enumerate(dec.layers) for v in layer)
    # layer i is exactly the cheap set of the graph with layers < i stripped
    assert dec.layers == rebuilt_layers(g)


def test_layers_match_rebuild_on_all_small_graphs(dedup_suite):
    for n, suite in dedup_suite.items():
        for g in suite:
            assert layer_decomposition(g).layers == rebuilt_layers(g), g.edges()


@given(graphs(max_n=18), st.data())
@settings(max_examples=120, deadline=None)
def test_residual_repairs_coreness_under_deletions(g, data):
    """After each delete the residual equals the rebuilt induced subgraph and
    its coreness equals the oracle's, and `changed` names exactly the live
    vertices whose degree or zeta moved."""
    r = Residual(g)
    gone: set[int] = set()
    while r.n:
        live = sorted(set(range(g.n)) - gone)
        drop = data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=4))
        before_deg = {v: len(r.adj[v]) for v in live}
        before_zeta = list(r.zeta)
        changed = r.delete(drop)
        gone |= drop
        sub = remove_vertices(g, gone)
        expect = zeta_oracle(sub.graph)
        assert list(r.vertices()) == list(sub.old_of)
        assert (r.n, r.m) == (sub.graph.n, sub.graph.m)
        for x, v in enumerate(sub.old_of):
            assert r.zeta[v] == expect[x]
            assert r.adj[v] == {sub.old_of[y] for y in sub.graph.adj[x]}
        assert changed == {v for v in sub.old_of
                           if len(r.adj[v]) != before_deg[v]
                           or r.zeta[v] != before_zeta[v]}


@given(graphs(max_n=16), st.data())
@settings(max_examples=60, deadline=None)
def test_cheap_layers_leave_the_residual_unchanged(g, data):
    """Reading the stream of a Residual to the end copies it at most once,
    never writes to it, and yields the layers of the rebuilt live graph."""
    r = Residual(g)
    r.delete(data.draw(st.sets(st.sampled_from(range(g.n)), max_size=3)) if g.n else ())

    def state():
        return [set(a) for a in r.adj], r.zeta[:], r.alive[:], r.n, r.m

    before = state()
    copies = []
    real_copy = Residual.copy
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Residual, "copy", lambda self: copies.append(self) or real_copy(self))
        layers = list(cheap_layers(r))
    assert state() == before
    assert len(copies) == (1 if r.n else 0)
    sub = remove_vertices(g, {v for v in range(g.n) if not r.alive[v]})
    assert tuple(layers) == tuple(frozenset(sub.old_of[x] for x in layer)
                                  for layer in rebuilt_layers(sub.graph))


def test_residual_copy_is_independent_and_delete_checks_ids():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    r = Residual(g)
    twin = r.copy()
    assert twin.delete({0}) == {1, 2, 3}
    assert twin.zeta == [0, 1, 1, 0] and (twin.n, twin.m) == (3, 1)
    assert r.zeta == [2, 2, 2, 1] and (r.n, r.m) == (4, 4)
    assert list(r.vertices()) == [0, 1, 2, 3]
    for bad in (0, 4, -1):
        with pytest.raises(GraphInputError):
            twin.delete({bad})


def test_known_profiles():
    assert list(zeta_profile(path_graph(6)).zeta) == [1] * 6
    assert list(zeta_profile(cycle_graph(5)).zeta) == [2] * 5
    assert list(zeta_profile(complete_graph(5)).zeta) == [4] * 5
    assert list(zeta_profile(star_graph(7)).zeta) == [1] * 8
    assert list(zeta_profile(complete_bipartite(2, 3)).zeta) == [2] * 5
    # triangle with a pendant: pendant stays at 1
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert list(zeta_profile(g).zeta) == [2, 2, 2, 1]
    assert cheap_vertices(g) == frozenset({1, 2, 3})


def test_zeta_regular_shapes():
    assert is_zeta_regular(cycle_graph(6))
    assert is_zeta_regular(complete_graph(4))
    assert is_zeta_regular(path_graph(5))          # all ones
    assert not is_zeta_regular(build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)]))


def test_layers_on_triangle_pendant():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    dec = layer_decomposition(g)
    assert [sorted(layer) for layer in dec.layers] == [[1, 2, 3], [0]]


def test_empty_and_singleton():
    assert list(zeta_profile(build_graph(0, [])).zeta) == []
    assert zeta_profile(build_graph(0, [])).degeneracy == 0
    assert list(zeta_profile(build_graph(1, [])).zeta) == [0]
    assert layer_decomposition(build_graph(0, [])).layers == ()


@given(st.integers(2, 30), st.floats(0.05, 0.9), st.integers(0, 10**6))
@settings(max_examples=40)
def test_oracle_agreement_on_denser_draws(n, p, seed):
    g = gnp(n, p, seed)
    assert list(zeta_profile(g).zeta) == list(zeta_oracle(g))
