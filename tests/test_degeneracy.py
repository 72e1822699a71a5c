"""Zeta profiles, cheap vertices, and the layer decomposition."""

import pickle
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_finders
from conftest import (complete_bipartite, complete_graph, count_calls, cycle_graph, gnm, gnp,
                      graphs, path_graph, random_tree, star_graph)
from zetakit import degeneracy, greedy
from zetakit.bounds import full_bound_report
from zetakit.degeneracy import (Residual, cheap_layers, cheap_vertices,
                                is_zeta_regular, layer_decomposition, zeta_oracle,
                                zeta_profile, zeta_weight)
from zetakit.graph import Graph, GraphInputError, build_graph, remove_vertices, smallest_last_order
from zetakit.oracle import layered_example_graph


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
    run = [prof.zeta[v] for v in smallest_last_order(g).order]
    assert all(a <= b for a, b in zip(run, run[1:]))
    assert prof.degeneracy == (max(prof.zeta) if g.n else 0)


def smallest_last_zeta(g):
    """The paper's recurrence: zeta of order[i] is the running max of the
    residual degrees along a smallest-last order, up to i."""
    sl = smallest_last_order(g)
    zeta = [0] * g.n
    running = 0
    for v, d in zip(sl.order, sl.residual_degrees):
        running = max(running, d)
        zeta[v] = running
    return tuple(zeta)


def assert_profile_twins(g):
    prof = zeta_profile(g)
    assert prof.zeta == smallest_last_zeta(g) == zeta_oracle(g), g.edges()
    assert prof.degeneracy == (max(prof.zeta) if g.n else 0)


@st.composite
def graphs_with_parts(draw):
    """A random graph joined, under a random relabelling, by isolated vertices,
    a star and a clique (each possibly empty)."""
    g = draw(graphs(min_n=0, max_n=14))
    isolated = draw(st.integers(0, 3))
    leaves = draw(st.integers(0, 6))
    clique = draw(st.integers(0, 6))
    edges = list(g.edges())
    n = g.n + isolated
    if leaves:
        edges += [(n, n + i) for i in range(1, leaves + 1)]
        n += leaves + 1
    edges += [(n + i, n + j) for i in range(clique) for j in range(i + 1, clique)]
    n += clique
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@given(graphs_with_parts())
@settings(max_examples=150)
def test_profile_matches_both_twins(g):
    assert_profile_twins(g)


def test_profile_matches_both_twins_on_all_small_graphs(dedup_suite):
    assert_profile_twins(build_graph(0, []))
    for suite in dedup_suite.values():
        for g in suite:
            assert_profile_twins(g)


@given(graphs(max_n=16))
def test_min_degree_vertices_are_cheap(g):
    if g.n == 0:
        return
    cheap = cheap_vertices(g)
    dmin = min(g.degrees())
    for v in range(g.n):
        if g.degree(v) == dmin:
            assert v in cheap


def live_adj(g):
    """The live neighbour sets of a Graph or a Residual by vertex id, empty for a
    deleted vertex: a Residual reads its Graph's adjacency, deleted vertices included."""
    alive = g.alive if isinstance(g, Residual) else [True] * g.n
    return [{w for w in a if alive[w]} if alive[v] else set() for v, a in enumerate(g.adj)]


def defined_cheap(g, zeta):
    """The cheap vertices by the definition: zeta(u) == deg(u) and zeta(u) minimal on N[u]."""
    adj = live_adj(g)
    return {u for u in g.vertices()
            if zeta[u] == len(adj[u]) and all(zeta[w] >= zeta[u] for w in adj[u])}


@given(graphs(max_n=16), st.data())
def test_cheap_definition(g, data):
    """cheap_vertices, which tests only zeta == deg, meets the whole definition
    on a Graph and on a Residual after random deletes."""
    prof = zeta_profile(g)
    assert cheap_vertices(g, prof) == defined_cheap(g, prof.zeta)
    r = Residual(g)
    while r.n:
        r.delete(draw_deletion(data, r))
        assert cheap_vertices(r) == defined_cheap(r, r.zeta)


def test_cheap_definition_on_all_small_graphs(dedup_suite):
    for n, suite in dedup_suite.items():
        for g in suite:
            assert cheap_vertices(g) == defined_cheap(g, zeta_oracle(g)), g.edges()


def rebuilt_layers(g):
    """Reference decomposition: the cheap set of each rebuilt, recomputed residual."""
    return tuple(scan_finders.rebuilt_layers(g))


def every_strip(g):
    """layer_decomposition of g by both strips: on a Graph, and on a Residual,
    without and with its kept cheap set as the first layer."""
    kept = Residual(g)
    kept.cheap_state()
    return layer_decomposition(g), layer_decomposition(Residual(g)), layer_decomposition(kept)


@given(graphs(max_n=16))
@settings(max_examples=60)
def test_layers_partition_and_recompute(g):
    dec, *others = every_strip(g)
    flat = [v for layer in dec.layers for v in layer]
    assert sorted(flat) == list(range(g.n))
    assert all(dec.layer_of[v] == i
               for i, layer in enumerate(dec.layers) for v in layer)
    # layer i is exactly the cheap set of the graph with layers < i stripped
    assert dec.layers == rebuilt_layers(g)
    assert all(other == dec for other in others)


def test_layers_match_rebuild_on_all_small_graphs(dedup_suite):
    for n, suite in dedup_suite.items():
        for g in suite:
            want = rebuilt_layers(g)
            assert all(dec.layers == want for dec in every_strip(g)), g.edges()


def test_graph_layers_build_no_residual(monkeypatch):
    """A Graph is stripped on plain lists: no Residual is built and no
    zeta_profile called.  The strip reads the Graph's kept peel, so the first
    strip of a Graph peels once, counting zeta and support, and no strip or
    profile of it peels again."""
    g = gnp(300, 8 / 300, 3)
    residuals, init = [], Residual.__init__

    def counted_init(self, *args):
        residuals.append(1)
        init(self, *args)

    monkeypatch.setattr(Residual, "__init__", counted_init)
    profiles = count_calls(monkeypatch, degeneracy, "zeta_profile")
    peels = count_calls(monkeypatch, degeneracy, "_peel")
    plain = layer_decomposition(g)
    assert (len(residuals), len(profiles), len(peels)) == (0, 0, 1)
    assert layer_decomposition(g) == plain
    assert (len(residuals), len(profiles), len(peels)) == (0, 0, 1)


def check_kept_peel(g, drop):
    """g's kept peel against its twins, then against its readers.

    The kept zeta equals zeta_oracle and the kept support a recount from it.
    Greedy runs, a Residual that deletes `drop` and inserts it back, strips
    of the Graph and of the Residual, and a bound report leave the kept
    values as they were.  A profiled g is ==, hash- and repr-equal to an
    unprofiled copy, and a pickle of it carries a kept peel that holds too.
    """
    plain = Graph(g.n, g.adj, g.m)
    prof, support = degeneracy._core(g)
    assert prof.zeta == zeta_oracle(g) and prof.degeneracy == max(prof.zeta, default=0)
    assert support == [sum(prof.zeta[w] >= z for w in a) for a, z in zip(g.adj, prof.zeta)]
    assert zeta_profile(g) is prof
    before = list(support)
    for run in (greedy.min_greedy, greedy.cheap_greedy, greedy.two_cheap_greedy):
        run(g)
    r = Residual(g)
    r.cheap_state().second()
    r.delete(drop)
    layer_decomposition(r)
    for v in sorted(drop):
        r.insert(v)
    layer_decomposition(g)
    full_bound_report(g)
    assert degeneracy._core(g) == (prof, before) and prof.zeta == zeta_oracle(g)
    assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
    assert "_core" not in vars(plain)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and degeneracy._core(back) == (prof, before)


def test_kept_peel_on_all_small_graphs(dedup_suite):
    for n, suite in dedup_suite.items():
        for g in suite:
            check_kept_peel(g, cheap_vertices(g))


@given(graphs(max_n=18), st.data())
@settings(max_examples=80, deadline=None)
def test_kept_peel_matches_twins_and_survives_its_readers(g, data):
    drop = data.draw(st.sets(st.sampled_from(range(g.n)), max_size=6)) if g.n else set()
    check_kept_peel(g, drop)


def test_layers_match_rebuild_far_past_the_small_graphs():
    """The strip of G(2000, 8/n), far past the n <= 16 draws above, equals
    the layer-by-layer rebuild."""
    g = gnp(2000, 8 / 2000, 7)
    assert layer_decomposition(g).layers == rebuilt_layers(g)


@given(graphs(max_n=18), st.data())
@settings(max_examples=120, deadline=None)
def test_residual_repairs_coreness_under_deletions(g, data):
    """After each delete the residual equals the rebuilt induced subgraph and
    its coreness and support counts equal a recompute, and `changed` names
    exactly the live vertices whose degree or zeta moved."""
    r = Residual(g)
    assert all(r.support[v] == recomputed_support(r, v) for v in range(g.n))
    gone: set[int] = set()
    while r.n:
        live = sorted(set(range(g.n)) - gone)
        drop = data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=4))
        before_deg = {v: r.deg[v] for v in live}
        before_zeta = list(r.zeta)
        changed = r.delete(drop)
        gone |= drop
        sub = remove_vertices(g, gone)
        expect = zeta_oracle(sub.graph)
        assert list(r.vertices()) == list(sub.old_of)
        assert (r.n, r.m) == (sub.graph.n, sub.graph.m)
        adj = live_adj(r)
        for x, v in enumerate(sub.old_of):
            assert r.zeta[v] == expect[x]
            assert adj[v] == {sub.old_of[y] for y in sub.graph.adj[x]}
            assert r.deg[v] == sub.graph.degree(x)
        assert changed == {v for v in sub.old_of
                           if r.deg[v] != before_deg[v]
                           or r.zeta[v] != before_zeta[v]}
        assert all(r.support[v] == recomputed_support(r, v) for v in sub.old_of)


def recomputed_support(r, v):
    return sum(r.alive[w] and r.zeta[w] >= r.zeta[v] for w in r.adj[v])


def residual_state(r):
    return r.deg[:], r.zeta[:], r.support[:], r.alive[:], r.n, r.m


def cheap_state_answers(r):
    """What a kept cheap state says, in plain values."""
    state = r.cheap_state()
    return (set(state.cheap), [state.count[v] for v in r.vertices()], state.isolated,
            state.least_edge(), state.least_hub(2), state.least_hub(3))


def recomputed_cheap_answers(r):
    """The same answers from a fresh cheap_vertices scan of the live graph."""
    cheap, adj = cheap_vertices(r), live_adj(r)
    count = [len(adj[v] & cheap) for v in r.vertices()]
    isolated = sum(not adj[v] for v in r.vertices())
    edge = min(((u, min(adj[u] & cheap)) for u in cheap if adj[u] & cheap), default=None)
    hubs = [min((v for v in r.vertices() if len(adj[v] & cheap) >= k), default=None)
            for k in (2, 3)]
    return (set(cheap), count, isolated, edge, *hubs)


def draw_deletion(data, r):
    return data.draw(st.sets(st.sampled_from(sorted(r.vertices())), min_size=1, max_size=4))


@given(graphs(max_n=18), st.data())
@settings(max_examples=120, deadline=None)
def test_kept_cheap_state_matches_recompute(g, data):
    """After every delete the kept cheap set, its neighbour counts, the isolated
    count and the heap answers equal a recompute from scratch."""
    r = Residual(g)
    r.cheap_state()
    while r.n:
        assert cheap_state_answers(r) == recomputed_cheap_answers(r)
        r.delete(draw_deletion(data, r))
    assert r.cheap_state().isolated == 0 and not r.cheap_state().cheap


def kept_layer_answers(r):
    """What the kept second layer of r says once brought up to date, in plain
    values: its cheap set, its residual's live vertices, adjacency, zeta and
    support, the layer counts `count` over r, and the four heap answers."""
    layer = r.cheap_state().second()
    res, live = layer.r, list(r.vertices())
    adj = live_adj(res)
    return (set(layer.cheap), set(res.vertices()), [adj[v] for v in live],
            [res.zeta[v] for v in res.vertices()], [res.support[v] for v in res.vertices()],
            [layer.count[v] for v in live],
            layer.least(), layer.least_pair(), layer.least_up(), layer.least_edge())


def read_layers(data, r):
    """Read the cheap layers of r, or of its kept second layer's residual as the
    2-cheap finder does, to the end or only the first few."""
    x = data.draw(st.sampled_from((r, r.cheap_state().second().r)))
    list(islice(cheap_layers(x), data.draw(st.one_of(st.none(), st.integers(0, 3)))))


def recomputed_layer(g, r):
    """The same answers from scratch: the second layer is layers[1] of the
    rebuilt live graph's decomposition, and its residual, the live graph
    minus the first layer, is rebuilt and its zeta and support recomputed."""
    dead = {v for v in range(g.n) if not r.alive[v]}
    sub = remove_vertices(g, dead)
    first, here = ([frozenset(sub.old_of[x] for x in layer)
                    for layer in layer_decomposition(sub.graph).layers] + [frozenset()] * 2)[:2]
    live = [v for v in range(g.n) if v not in dead]
    rest = remove_vertices(g, dead | first)
    zeta = dict(zip(rest.old_of, zeta_oracle(rest.graph)))
    adj = {v: {rest.old_of[y] for y in rest.graph.adj[x]} for x, v in enumerate(rest.old_of)}
    return (set(here), set(rest.old_of), [adj.get(v, set()) for v in live],
            [zeta[v] for v in rest.old_of],
            [sum(zeta[w] >= zeta[v] for w in adj[v]) for v in rest.old_of],
            [len(g.adj[v] & here) for v in live],
            min(here, default=None),
            min((p for p in here if len(g.adj[p] & first) >= 2), default=None),
            min((u for u in first if len(g.adj[u] & here) >= 2), default=None),
            min(((u, min(g.adj[u] & here)) for u in here if g.adj[u] & here), default=None))


@given(graphs(max_n=18), st.data())
@settings(max_examples=150, deadline=None)
def test_kept_layers_match_recompute(g, data):
    """Through random deletes, some read after each and some batched into one
    update, the kept second layer equals a recompute of the live graph's
    second layer, of its residual's zeta and support, and of the finders'
    heap answers; reading cheap layers, of r or of the second layer's residual,
    wholly or in part, changes neither residual nor any answer."""
    r = Residual(g)
    kept_layer_answers(r)
    while r.n:
        if data.draw(st.booleans()):
            assert kept_layer_answers(r) == recomputed_layer(g, r)
            if data.draw(st.booleans()):
                second = r.cheap_state().second().r
                before = residual_state(r), residual_state(second), cheap_state_answers(r)
                read_layers(data, r)
                assert (residual_state(r), residual_state(second), cheap_state_answers(r)) == before
                assert cheap_state_answers(r) == recomputed_cheap_answers(r)
                assert kept_layer_answers(r) == recomputed_layer(g, r)
        r.delete(draw_deletion(data, r))
    assert kept_layer_answers(r) == recomputed_layer(g, r)


LAYER_READS = ("least", "least_pair", "least_up", "least_edge")


@given(graphs(max_n=18), st.data())
@settings(max_examples=150, deadline=None)
def test_reads_first_asked_at_any_step_match_a_scan(g, data):
    """Each read is first asked at a drawn step of a random delete sequence: the
    first layer's least_hub(k) for k = 1..5 and the second layer's four reads.
    From that step on, every answer equals a scan of the live graph, and each
    layer holds the heaps of the reads asked so far and no other."""
    r = Residual(g)
    state = r.cheap_state()
    names = [*range(1, 6), *LAYER_READS]
    first = {name: data.draw(st.integers(0, 6), label=f"first {name}") for name in names}
    step = 0
    while True:
        asked = {name for name in names if first[name] <= step}
        cheap = cheap_vertices(r)
        scan = dict(zip(LAYER_READS, recomputed_layer(g, r)[-4:]))
        for name in asked:
            if name in LAYER_READS:
                assert getattr(state.second(), name)() == scan[name], (name, step)
            else:
                assert state.least_hub(name) == min(
                    (v for v in r.vertices() if len(r.adj[v] & cheap) >= name), default=None)
        second = state._second
        pair = {(second, 2)} if "least_pair" in asked else set()
        assert set(state._reads) == {(None, k) for k in range(1, 6) if k in asked} | pair
        if second is not None:
            assert set(second._reads) == {key for name, key in (
                ("least", (second, 0)), ("least_up", (state, 2)),
                ("least_edge", (second, 1))) if name in asked}
        if not r.n:
            break
        r.delete(draw_deletion(data, r))
        step += 1


def test_greedy_runs_make_only_the_reads_their_finders_ask(monkeypatch):
    """A one_cheap_greedy run leaves the first layer without a level-3 hub read;
    a two_cheap_greedy run leaves it without a level-2 hub read and the second
    layer without a level-3 read.  Each layer keeps only the reads its finder
    asks for."""
    made = []
    monkeypatch.setattr(greedy, "Residual", lambda g: made.append(Residual(g)) or made[-1])
    seconds = 0
    for g in (path_graph(9), cycle_graph(10), star_graph(4), complete_bipartite(2, 5),
              random_tree(60, 1), gnp(40, 0.1, 2)):
        made.clear()
        greedy.one_cheap_greedy(g)
        greedy.two_cheap_greedy(g)
        one, two = (r._cheap for r in made)
        assert set(one._reads) <= {(one, 1), (None, 2)}
        if one._second is not None:
            assert set(one._second._reads) <= {(one._second, 0)}
        second = two._second
        assert set(two._reads) <= {(two, 1), (None, 3), (second, 2)}
        if second is not None:
            assert set(second._reads) <= {(two, 2), (second, 1)}
            seconds += bool(second._reads)
    assert seconds >= 2


def test_kept_layers_take_back_vertices_that_leave_a_layer():
    """Deleting one vertex of a cycle makes the others a path, whose inner
    vertices leave C alive and go back into the second layer's residual."""
    g = cycle_graph(9)
    r = Residual(g)
    state = r.cheap_state()
    assert kept_layer_answers(r) == recomputed_layer(g, r)
    assert state.second().cheap == set() and state.cheap == set(range(9))
    r.delete({0})
    assert state.cheap == {1, 8}
    assert kept_layer_answers(r) == recomputed_layer(g, r)
    assert state.second().cheap == {2, 7}
    r.delete({1, 8})
    assert kept_layer_answers(r) == recomputed_layer(g, r)


@given(graphs(max_n=18), st.data())
@settings(max_examples=150, deadline=None)
def test_second_layer_counts_on_the_deleting_residual(g, data):
    """The kept second layer's one count: for every live x of r, count[x] is the
    number of x's neighbours in r that lie in the second layer, after every
    delete, whether or not the layer has been read since, and after every read."""
    r = Residual(g)
    second = r.cheap_state().second()

    def holds():
        return all(second.count[x] == len(r.adj[x] & second.cheap) for x in r.vertices())

    assert holds()
    while r.n:
        r.delete(draw_deletion(data, r))
        assert holds()
        if data.draw(st.booleans()):
            assert r.cheap_state().second() is second
            assert holds()


@given(graphs(max_n=14), st.data())
@settings(max_examples=80, deadline=None)
def test_kept_layers_follow_an_insert_into_the_residual(g, data):
    """Deleted vertices put back into r, each next to its live neighbours, while
    a second layer is kept: every read of the layer afterwards equals a
    recompute, as the layer is built again after an insert.  The first layer
    stops feeding the reads of a layer it gave up."""
    r = Residual(g)
    kept_layer_answers(r)
    gone = data.draw(st.lists(st.sampled_from(range(g.n)), unique=True, min_size=1)) if g.n else []
    r.delete(gone)
    assert kept_layer_answers(r) == recomputed_layer(g, r)
    state = r.cheap_state()
    for v in data.draw(st.permutations(gone)):
        r.insert(v)
        assert all(key[0] in (None, state) for key in state._reads)
        assert all(m is None or m is state.cheap for fs in state._feeds.values() for m, _ in fs)
        assert all(counts is state.count for counts, _, _ in state._joins)
        if data.draw(st.booleans()):
            assert kept_layer_answers(r) == recomputed_layer(g, r)
    assert kept_layer_answers(r) == recomputed_layer(g, r)


@given(graphs(max_n=16), st.data())
@settings(max_examples=60, deadline=None)
def test_cheap_layers_leave_the_residual_unchanged(g, data):
    """Reading the stream of a Residual to the end, or stopping early, leaves
    the Residual as it was, and the layers are those of the rebuilt live graph."""
    r = Residual(g)
    if data.draw(st.booleans()):
        r.cheap_state()
    r.delete(data.draw(st.sets(st.sampled_from(range(g.n)), max_size=3)) if g.n else ())
    before = residual_state(r)
    layers = list(cheap_layers(r))
    assert residual_state(r) == before
    sub = remove_vertices(g, {v for v in range(g.n) if not r.alive[v]})
    assert tuple(layers) == tuple(frozenset(sub.old_of[x] for x in layer)
                                  for layer in rebuilt_layers(sub.graph))
    assert list(islice(cheap_layers(r), 2)) == layers[:2]
    assert residual_state(r) == before


@given(graphs(max_n=18), st.data())
@settings(max_examples=120, deadline=None)
def test_residual_insert_repairs_coreness(g, data):
    """Deleted vertices put back one by one, in any order, each next to its
    live neighbours: after each insert the coreness and support counts equal a
    recompute and a kept cheap state equals a scan, and once all are back the
    residual is as it was before the delete."""
    r = Residual(g)
    kept = data.draw(st.booleans())
    if kept:
        r.cheap_state()
    before = residual_state(r)
    gone = data.draw(st.lists(st.sampled_from(range(g.n)), unique=True, min_size=1))
    r.delete(gone)
    for v in data.draw(st.permutations(gone)):
        r.insert(v)
        expect = zeta_oracle(remove_vertices(g, {x for x in range(g.n) if not r.alive[x]}).graph)
        assert [r.zeta[x] for x in r.vertices()] == list(expect)
        assert all(r.support[x] == recomputed_support(r, x) for x in r.vertices())
        if kept:
            assert cheap_state_answers(r) == recomputed_cheap_answers(r)
    assert residual_state(r) == before
    with pytest.raises(GraphInputError):
        r.insert(gone[0])


def live_zeta_oracle(r):
    """zeta_oracle of r's live graph on r's vertex ids; a deleted vertex is isolated."""
    adj = live_adj(r)
    return list(zeta_oracle(build_graph(len(adj), [(u, v) for u in r.vertices()
                                                   for v in adj[u] if u < v])))


def test_min_degree_deletes_repair_multi_level_falls():
    """Repeated min-degree N[v] deletes on the layered example graph, whose
    falls are mostly of several levels: after each delete zeta equals the
    live oracle and every support is exact, and some delete lowers a vertex
    by two levels or more, one level per step of _settle."""
    r = Residual(layered_example_graph(8))
    deepest = 0
    while r.n:
        v = min(r.vertices(), key=lambda u: (r.deg[u], u))
        before = r.zeta[:]
        r.delete({v, *live_adj(r)[v]})
        assert r.zeta == live_zeta_oracle(r)
        assert all(r.support[u] == recomputed_support(r, u) for u in r.vertices())
        deepest = max(deepest, *(before[u] - r.zeta[u] for u in r.vertices()), 0)
    assert deepest >= 2


def test_vertex_left_without_neighbours_drops_to_zero_in_one_step():
    """Deleting 7 vertices of K_8 leaves the last one with no live neighbour
    and zeta 7 short of support: _settle drops it to zeta 0 and support 0 in
    one pop, and the result equals a recompute."""
    r = Residual(complete_graph(8))
    changed = r.delete(range(7))
    assert (r.zeta[7], r.support[7]) == (0, 0) and 7 in changed
    assert r.zeta == live_zeta_oracle(r) and r.support[7] == recomputed_support(r, 7)

    class CountingSet(set):
        pops = 0

        def pop(self):
            CountingSet.pops += 1
            return super().pop()

    zeta, support, changed = [7], [0], set()
    degeneracy._settle([set()], [0], zeta, support, CountingSet({0}), changed)
    assert (zeta, support, changed, CountingSet.pops) == ([0], [0], {0}, 1)


@given(graphs(max_n=18), st.data())
@settings(max_examples=120, deadline=None)
def test_support_stays_exact_under_every_operation(g, data):
    """Through random deletes, reads of the cheap layers, and inserts of deleted
    vertices, support[v] stays the number of v's
    neighbours with zeta >= zeta[v] and zeta stays the live graph's oracle; a
    read of the layers changes nothing."""
    r = Residual(g)
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(("delete", "strip", "insert")))
        dead = [v for v in range(g.n) if not r.alive[v]]
        if op == "insert" and dead:
            r.insert(data.draw(st.sampled_from(dead)))
        elif op == "strip":
            before = residual_state(r)
            read_layers(data, r)
            assert residual_state(r) == before
        elif r.n:
            r.delete(draw_deletion(data, r))
        assert all(r.support[v] == recomputed_support(r, v) for v in r.vertices())
        assert r.zeta == live_zeta_oracle(r)


def test_residual_and_kept_layers_take_a_fraction_of_the_graph():
    """A Residual reads its Graph's frozen neighbour sets and keeps four
    per-vertex lists, and D's residual is four list copies.  At n = 2 * 10^4
    with 4n edges, Residual(g) with its cheap state and kept second layer
    allocate at most 40% of what build_graph allocated for g, the peel that
    the first Residual makes included; a copy of every neighbour set per
    residual took about 200%."""
    n = 20000
    g = gnm(n, 4 * n, 1)
    edges = g.edges()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_graph(n, edges)
        graph = tracemalloc.get_traced_memory()[0] - base
        r = Residual(g)
        r.cheap_state().second()
        kept = tracemalloc.get_traced_memory()[0] - base - graph
    finally:
        tracemalloc.stop()
    assert r.n == n and kept <= 0.4 * graph, (kept, graph)


def test_insert_refuses_a_live_or_bad_vertex():
    """Only a deleted vertex comes back: a live one, or an id out of range, -1
    included, which would index another vertex or none, is refused before
    anything changes.  A vertex comes back next to its live neighbours only."""
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    r = Residual(g)
    r.delete({1, 3})
    before = residual_state(r)
    for v in (0, 2, 4, -1):
        with pytest.raises(GraphInputError):
            r.insert(v)
        assert residual_state(r) == before
    r.insert(3)
    assert (r.n, r.m) == (3, 3) and r.zeta == live_zeta_oracle(r)


def test_residual_delete_checks_ids():
    """A delete refuses a deleted vertex and an id out of range, -1 included."""
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    r = Residual(g)
    assert r.delete({0}) == {1, 2, 3}
    assert r.zeta == [0, 1, 1, 0] and (r.n, r.m) == (3, 1)
    for bad in (0, 4, -1):
        with pytest.raises(GraphInputError):
            r.delete({bad})


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


# ── slow twin: the weight sum written out one Fraction term per value ───────

def literal_zeta_weight(values, shift):
    return sum((min(Fraction(1), Fraction(1) / (z + shift)) for z in values), Fraction(0))


@given(st.lists(st.integers(0, 12), max_size=30),
       st.one_of(st.fractions(-13, 13, max_denominator=24), st.integers(-13, 13)))
@settings(max_examples=400)
def test_zeta_weight_matches_literal_sum(values, shift):
    """Equal on every multiset and rational shift, negative ones included; both raise
    ZeroDivisionError exactly when some z + shift is zero."""
    try:
        want = literal_zeta_weight(values, shift)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            zeta_weight(values, shift)
        return
    got = zeta_weight(values, shift)
    assert got == want and type(got) is Fraction


def test_zeta_weight_known_values():
    assert zeta_weight([], Fraction(1, 2)) == 0
    assert zeta_weight([0, 0, 1], Fraction(1, 2)) == 2 + Fraction(2, 3)
    assert zeta_weight([0, 2, 3], -1) == -1 + 1 + Fraction(1, 2)   # 1/(0 - 1) stays negative
    assert zeta_weight([2, 5], Fraction(-5, 2)) == -2 + Fraction(2, 5)
    assert zeta_weight([3], Fraction(-7, 3)) == 1            # 0 < 3 - 7/3 <= 1
    for values, shift in (([1, 4], -1), ([0], 0), ([2, 3], Fraction(-9, 3))):
        with pytest.raises(ZeroDivisionError):
            zeta_weight(values, shift)
