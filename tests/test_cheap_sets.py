"""Constructive k-cheap set search: verification, patterns, fuzz counts.

The two big seeded loops mirror the sizes the acceptance suite relies on
(10,000 graphs each); they run in well under a minute together.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_finders
from conftest import (count_calls, count_strips, cycle_graph, fail_first_verification, gnp,
                      graphs_with_edges, path_graph, random_tree, star_graph)
from zetakit import degeneracy
from zetakit.cheap_sets import (CheapSet, CheapSetSearchError, _tree_max_k_independent,
                                cheap_weight, find_1_cheap, find_2_cheap,
                                find_k_cheap_forest, verify_k_cheap)
from zetakit.degeneracy import Residual, cheap_vertices, zeta_profile
from zetakit.graph import (GraphInputError, build_graph, connected_components, is_forest,
                           remove_vertices)
from zetakit.oracle import alpha_k_subset_enumeration, enumerate_small_graphs, exact_alpha_k

_2CHEAP_KINDS = {
    "adjacent-pair", "triple-common-neighbor", "pair-plus-c2-neighbor",
    "c1-with-two-c2", "induced-path-4", "two-layer-paths", "layer-path",
    "layer-path-pair-bridge",
}


def edgy_gnp(n, p, rng):
    """Random graph with no isolated vertices (attach strays to a neighbor)."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p}
    covered = {x for e in edges for x in e}
    for v in range(n):
        if v not in covered and n > 1:
            w = rng.choice([x for x in range(n) if x != v])
            edges.add((min(v, w), max(v, w)))
    return build_graph(n, sorted(edges))


def spanning_forest(n, seed):
    """Random forest without isolated vertices (n >= 2)."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.75]
    covered = {x for e in edges for x in e}
    for v in range(n):
        if v in covered:
            continue
        # a leaf edge to an already-covered vertex can never close a cycle
        pool = sorted(covered - {v}) or [(v + 1) % n]
        w = rng.choice(pool)
        edges.append((min(v, w), max(v, w)))
        covered |= {v, w}
    g = build_graph(n, edges)
    assert is_forest(g)
    return g


# ── verifier ────────────────────────────────────────────────────────────────


def test_verify_rejects_empty_and_bad_level():
    g = path_graph(3)
    assert not verify_k_cheap(g, set(), 1)
    with pytest.raises(Exception):
        verify_k_cheap(g, {0}, -1)


def test_verify_rejects_ids_that_are_not_live_vertices():
    """-1 would index the last vertex, 9 no vertex, and a deleted vertex of a
    Residual has no neighbours left to weigh: each is refused."""
    g = path_graph(4)
    for s in ({-1}, {9}, {0, -1}):
        with pytest.raises(GraphInputError):
            verify_k_cheap(g, s, 0)
    r = Residual(g)
    r.delete({0})
    with pytest.raises(GraphInputError):
        verify_k_cheap(r, {0}, 0)
    assert verify_k_cheap(r, {1}, 0).ok


def test_verify_reports_inner_degree_violation():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    res = verify_k_cheap(g, {0, 1, 2}, 1)
    assert not res.ok and "max degree inside" in res.reason
    assert res.max_inner_degree == 2


def test_verify_weight_bookkeeping():
    g = path_graph(4)
    prof = zeta_profile(g)
    res = verify_k_cheap(g, {0, 1}, 1, prof)
    assert res.ok
    assert res.weight == cheap_weight(g, prof.zeta, {0, 1}, 1)
    assert res.size == 2


@given(graphs_with_edges(max_n=16), st.data())
def test_verifier_matches_direct_recomputation(g, data):
    s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=5))
    level = data.draw(st.integers(0, 3))
    prof = zeta_profile(g)
    res = verify_k_cheap(g, s, level, prof)
    inner = max(len(g.adj[v] & s) for v in s)
    weight = cheap_weight(g, prof.zeta, s, level)
    assert res.ok == (inner <= level and weight <= len(s))


# ── level 1 ─────────────────────────────────────────────────────────────────


def test_find_1_cheap_requires_edges():
    with pytest.raises(Exception):
        find_1_cheap(build_graph(3, []))


@given(graphs_with_edges(max_n=24))
@settings(max_examples=200)
def test_find_1_cheap_verifies(g):
    # strip isolated vertices; the finder refuses them by contract
    iso = {v for v in range(g.n) if not g.adj[v]}
    g = remove_vertices(g, iso).graph
    cs = find_1_cheap(g)
    assert cs.level == 1
    assert len(cs.vertices) == 2
    assert cs.kind in ("type-I", "type-II", "type-III")
    assert verify_k_cheap(g, cs.vertices, 1).ok


def test_find_1_cheap_ten_thousand_random():
    rng = random.Random(11)
    kinds = {}
    for _ in range(10_000):
        n = rng.randrange(2, 33)
        g = edgy_gnp(n, rng.choice([0.08, 0.15, 0.3, 0.6]), rng)
        cs = find_1_cheap(g)
        kinds[cs.kind] = kinds.get(cs.kind, 0) + 1
        assert verify_k_cheap(g, cs.vertices, 1).ok
    assert sum(kinds.values()) == 10_000
    assert set(kinds) <= {"type-I", "type-II", "type-III"}


def assert_type_ii_argument(g, cheap, kind):
    """Check each step of the type-II argument in find_1_cheap's docstring.

    The finder answers type-II exactly when type-I and type-III do not apply.
    Then C = cheap is independent, no vertex has two neighbours in C, and
    every w of the second layer (not only the one returned) has exactly one
    neighbour u in C and is cheap in G - u.
    """
    counts = [len(g.adj[v] & cheap) for v in range(g.n)]
    independent = all(counts[v] == 0 for v in cheap)
    assert (kind == "type-II") == (independent and max(counts) <= 1), g.edges()
    if kind != "type-II":
        return
    sub = remove_vertices(g, cheap)
    second = [sub.old_of[x] for x in cheap_vertices(sub.graph)]
    assert second
    for w in second:
        partners = g.adj[w] & cheap
        assert len(partners) == 1, (g.edges(), w)
        without_u = remove_vertices(g, partners)
        assert without_u.new_of[w] in cheap_vertices(without_u.graph), (g.edges(), w)


@given(graphs_with_edges(max_n=24))
@settings(max_examples=200)
def test_1_cheap_type_ii_argument(g):
    g = remove_vertices(g, {v for v in range(g.n) if not g.adj[v]}).graph
    assert_type_ii_argument(g, cheap_vertices(g), find_1_cheap(g).kind)


def test_1_cheap_type_certificates_exhaustive(dedup_suite):
    for n in range(2, 8):
        for g in dedup_suite[n]:
            if any(not g.adj[v] for v in range(g.n)):
                continue
            prof = zeta_profile(g)
            cheap = cheap_vertices(g, prof)
            cs = find_1_cheap(g)
            u, w = sorted(cs.vertices)
            if cs.kind == "type-I":
                assert u in cheap and w in cheap and w in g.adj[u]
            elif cs.kind == "type-III":
                assert u in cheap and w in cheap and w not in g.adj[u]
                assert g.adj[u] & g.adj[w]
            else:
                # u cheap in G, uw an edge, no other cheap vertex adjacent
                # to w, and w cheap once u is deleted
                pair = {x for x in (u, w) if x in cheap}
                assert len(pair) == 1
                uu = pair.pop()
                ww = w if uu == u else u
                assert ww in g.adj[uu]
                assert g.adj[ww] & cheap == {uu}
                sub = remove_vertices(g, {uu})
                assert sub.new_of[ww] in cheap_vertices(sub.graph)
            assert_type_ii_argument(g, cheap, cs.kind)


def residual_state(r):
    return r.deg[:], r.zeta[:], r.alive[:], r.n, r.m


def test_finders_strip_a_residual_only_for_the_second_layer(monkeypatch):
    """Layer strips happen only for an answer below the second layer, one layer
    removed per layer moved past and only on the residual that keeps the
    second layer; the finder leaves both residuals as they were."""
    strips = count_strips(monkeypatch)
    cases = [(find_1_cheap, cycle_graph(4), "type-I", 0),
             (find_1_cheap, path_graph(3), "type-III", 0),
             (find_1_cheap, path_graph(4), "type-II", 0),
             (find_2_cheap, cycle_graph(4), "adjacent-pair", 0),
             (find_2_cheap, star_graph(3), "triple-common-neighbor", 0),
             (find_2_cheap, path_graph(3), "pair-plus-c2-neighbor", 0),
             # the layers of 0-1-2-3-4 are {0, 4}, {1, 3}, {2}: one strip of D
             (find_2_cheap, path_graph(5), "two-layer-paths", 1),
             # the fourth layer {3} of 0-...-6 takes one more, of {2, 4}
             (find_2_cheap, path_graph(7), "two-layer-paths", 2)]
    for finder, g, kind, expected in cases:
        strips.clear()
        r = Residual(g)
        before = residual_state(r)
        assert finder(r).kind == kind
        assert len(strips) == expected, (finder.__name__, kind, len(strips))
        assert residual_state(r) == before
        if strips:
            second = r.cheap_state().second()
            assert all(first == second.cheap for first, _ in strips)
            assert residual_state(second.r) == residual_state(Residual(g).cheap_state().second().r)


def test_finders_profile_a_graph_once(monkeypatch):
    """A finder handed a Graph peels it once, in its one Residual, and makes no
    other zeta profile."""
    profiles = count_calls(monkeypatch, degeneracy, "zeta_profile")
    peels = count_calls(monkeypatch, degeneracy, "_peel")
    for run in (find_1_cheap, find_2_cheap, lambda g: find_k_cheap_forest(path_graph(4), 1)):
        profiles.clear()
        peels.clear()
        run(cycle_graph(4))
        assert (len(profiles), len(peels)) == (0, 1)


def assert_finders_match_scan_twins(g):
    for finder, twin in ((find_1_cheap, scan_finders.find_1_cheap),
                         (find_2_cheap, scan_finders.find_2_cheap)):
        assert finder(g) == twin(g), (finder.__name__, g.edges())


def test_finders_match_scan_twins_exhaustive(dedup_suite):
    for n in range(2, 8):
        for g in dedup_suite[n]:
            if all(g.adj):
                assert_finders_match_scan_twins(g)


@given(graphs_with_edges(max_n=24), st.data())
@settings(max_examples=150, deadline=None)
def test_finders_match_scan_twins(g, data):
    """On a Graph, and on a Residual whose cheap state was kept through deletes,
    each finder returns the twin's set for the same live graph."""
    g = remove_vertices(g, {v for v in range(g.n) if not g.adj[v]}).graph
    assert_finders_match_scan_twins(g)
    r = Residual(g)
    r.cheap_state()
    for _ in range(data.draw(st.integers(1, 3))):
        live = list(r.vertices())
        if len(live) < 3:
            break
        r.delete(data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=2)))
        stray = [v for v in r.vertices() if not r.deg[v]]
        if stray:
            r.delete(stray)
    if not r.n:
        return
    sub = remove_vertices(g, {v for v in range(g.n) if not r.alive[v]})
    for finder, twin in ((find_1_cheap, scan_finders.find_1_cheap),
                         (find_2_cheap, scan_finders.find_2_cheap)):
        got, want = finder(r), twin(sub.graph)
        assert got.kind == want.kind and got.vertices == {sub.old_of[x] for x in want.vertices}


def test_known_1_cheap_on_path():
    cs = find_1_cheap(path_graph(6))
    assert verify_k_cheap(path_graph(6), cs.vertices, 1).ok
    # the two ends of P2 are the whole graph
    cs2 = find_1_cheap(path_graph(2))
    assert cs2.vertices == frozenset({0, 1})


# ── level 2 ─────────────────────────────────────────────────────────────────


@given(graphs_with_edges(max_n=24))
@settings(max_examples=200)
def test_find_2_cheap_verifies(g):
    iso = {v for v in range(g.n) if not g.adj[v]}
    g = remove_vertices(g, iso).graph
    cs = find_2_cheap(g)
    assert cs.level == 2
    assert cs.kind in _2CHEAP_KINDS
    assert verify_k_cheap(g, cs.vertices, 2).ok


def test_find_2_cheap_ten_thousand_random_no_anomalies():
    # a first candidate that failed verification would raise CheapSetSearchError
    rng = random.Random(12345)
    kinds = {}
    for _ in range(10_000):
        n = rng.randrange(2, 33)
        g = edgy_gnp(n, rng.choice([0.08, 0.15, 0.3, 0.6]), rng)
        cs = find_2_cheap(g)
        kinds[cs.kind] = kinds.get(cs.kind, 0) + 1
        assert verify_k_cheap(g, cs.vertices, 2).ok
    assert set(kinds) <= _2CHEAP_KINDS


def test_2_cheap_merged_chain_regression():
    # the layers are {1}, {5}, {0, 3}, {2, 4}: 0 and 3 both have 5 as their one
    # neighbour one layer down, so their chains would merge at 5 (the union
    # {0, 1, 3, 5} has inner degree 3 at 5).  Stage (c) of sweep layer 2
    # answers first, with 0 and the chain of 5, before any chains could merge.
    g = build_graph(6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3),
                        (2, 4), (3, 4), (3, 5)])
    cs = find_2_cheap(g)
    assert cs.kind == "layer-path"
    assert cs.vertices == frozenset({0, 1, 5})
    assert verify_k_cheap(g, cs.vertices, 2).ok


def test_2_cheap_bridge_shapes():
    # triangle 1-2-3 with three pendants: the layers are {0, 4, 5}, {1, 2, 3},
    # and the first edge 1-2 inside the second gives the induced path 0-2-1-5
    g = build_graph(6, [(0, 2), (1, 2), (1, 3), (1, 5), (2, 3), (3, 4)])
    cs = find_2_cheap(g)
    assert cs.kind == "induced-path-4"
    assert verify_k_cheap(g, cs.vertices, 2).ok


def test_2_cheap_bridge_after_a_refused_union():
    """The one union test the proofs keep: an edge between the two chains.

    The layers are {7, 8, 10}, {4, 6, 9}, {2, 3, 5}, {0, 1}.  At sweep layer 3,
    stage (a) finds 3 and 5 below vertex 1 and refuses the union of their
    chains 3-4-7 and 5-6-8, which the edge 3-5 joins.  Nothing else in the
    sweep answers, and the bridge stage takes 3-5, the first edge inside a
    layer above D: the induced path 7-4-3-5-6-8.  Without the edge test,
    stage (a) would answer, tagged two-layer-paths."""
    g = build_graph(11, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 9), (3, 4), (3, 5),
                         (4, 7), (5, 6), (6, 8), (9, 10)])
    assert degeneracy.layer_decomposition(g).layers == (
        frozenset({7, 8, 10}), frozenset({4, 6, 9}), frozenset({2, 3, 5}), frozenset({0, 1}))
    cs = find_2_cheap(g)
    assert cs.kind == "layer-path-pair-bridge"
    assert cs.vertices == frozenset({3, 4, 5, 6, 7, 8})
    assert cs == scan_finders.find_2_cheap(g)


def test_cycles_and_paths_2_cheap():
    for n in (3, 4, 5, 6, 9, 12):
        cs = find_2_cheap(cycle_graph(n))
        assert verify_k_cheap(cycle_graph(n), cs.vertices, 2).ok


def test_find_2_cheap_raises_when_its_candidate_fails(monkeypatch):
    """A failed verification raises at once; no second candidate is tried."""
    calls = fail_first_verification(monkeypatch)
    with pytest.raises(CheapSetSearchError, match="adjacent-pair candidate"):
        find_2_cheap(cycle_graph(4))
    assert calls == [frozenset({0, 1})]


def two_cheap_lemmas(g):
    """Check the three lemmas of find_2_cheap's docstring on g.

    Every adjacent pair in the cheap set C is 2-cheap; when C is independent,
    every three C-neighbours of a common vertex are 2-cheap; every vertex of a
    cheap layer j > 0 has a neighbour in layer j - 1.  Returns how many pairs,
    triples and layered vertices were checked."""
    prof = zeta_profile(g)
    cheap = cheap_vertices(g, prof)
    pairs = [{u, w} for u in cheap for w in g.adj[u] & cheap if u < w]
    triples = [] if pairs else [set(t) for p in range(g.n)
                                for t in combinations(sorted(g.adj[p] & cheap), 3)]
    for s in pairs + triples:
        assert verify_k_cheap(g, s, 2, prof).ok, (g.edges(), s)
    layers = list(scan_finders.rebuilt_layers(g))
    for below, layer in zip(layers, layers[1:]):
        for v in layer:
            assert g.adj[v] & below, (g.edges(), v)
    return len(pairs), len(triples), sum(map(len, layers[1:]))


def test_2_cheap_lemmas_exhaustive(dedup_suite):
    counts = [two_cheap_lemmas(g) for n in range(1, 8) for g in dedup_suite[n]]
    assert all(map(sum, zip(*counts)))        # each lemma was exercised


@given(graphs_with_edges(max_n=24))
@settings(max_examples=150, deadline=None)
def test_2_cheap_lemmas(g):
    two_cheap_lemmas(g)


# ── forests ─────────────────────────────────────────────────────────────────


def test_forest_finder_rejects_non_forest():
    with pytest.raises(GraphInputError, match="not a forest"):
        find_k_cheap_forest(cycle_graph(4), 1)


@given(st.integers(2, 64), st.integers(0, 10**6), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_forest_finder_all_levels(n, seed, k):
    g = spanning_forest(n, seed)
    cs = find_k_cheap_forest(g, k)
    assert cs.level == k
    assert cs.kind == "forest-leaf"
    assert verify_k_cheap(g, cs.vertices, k).ok


def repair_lemma_cases(g, v, k):
    """Check the repair variants of `_tree_k_cheap`'s docstring at the leaf v of
    the tree g: for each k-independent S of g - v that holds v's neighbour w
    with exactly k S-neighbours, (S - p) + v for every S-neighbour p of w, S
    and (S - w) + v are nonempty and k-independent.  Returns how many S."""
    def inner(x):
        return max(len(g.adj[y] & x) for y in x)

    (w,) = g.adj[v]
    rest = [x for x in range(g.n) if x not in (v, w)]
    cases = 0
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            s = {w, *extra}
            if len(g.adj[w] & s) != k or inner(s) > k:
                continue
            cases += 1
            for cand in [(s - {p}) | {v} for p in g.adj[w] & s] + [s, (s - {w}) | {v}]:
                assert cand and inner(cand) <= k, (g.edges(), v, k, sorted(s), sorted(cand))
    return cases


def tree_leaves(g):
    return [v for v in range(g.n) if len(g.adj[v]) == 1]


def test_forest_repair_lemma_exhaustive(dedup_suite):
    trees = [g for n in range(2, 8) for g in dedup_suite[n] if g.m == n - 1 and is_forest(g)]
    for k in range(5):
        cases = sum(repair_lemma_cases(g, v, k) for g in trees for v in tree_leaves(g))
        assert cases > 0, k


@given(st.integers(2, 10), st.integers(0, 10**6), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_forest_repair_lemma(n, seed, k):
    g = random_tree(n, seed)
    for v in tree_leaves(g):
        repair_lemma_cases(g, v, k)


def test_tree_dp_matches_the_exact_oracles(dedup_suite):
    """`_tree_max_k_independent`, run on each component, returns a
    k-independent set of size alpha_k: on every forest with n <= 7 and on
    random trees with n <= 18, at k = 0..4, by `exact_alpha_k` and, for
    n <= 12, by its slow twin `alpha_k_subset_enumeration`."""
    forests = [g for n in range(1, 8) for g in dedup_suite[n] if is_forest(g)]
    forests += [random_tree(n, seed) for n in range(1, 19) for seed in range(8)]
    for g in forests:
        comps = connected_components(g)
        for k in range(5):
            s = set().union(*(_tree_max_k_independent(g, set(comp), k) for comp in comps))
            assert all(len(g.adj[v] & s) <= k for v in s), (g.edges(), k, sorted(s))
            alpha = exact_alpha_k(g, k)[0]
            assert len(s) == alpha, (g.edges(), k, sorted(s))
            if g.n <= 12:
                assert alpha_k_subset_enumeration(g, k) == alpha, (g.edges(), k)


def test_forest_star_repair():
    # K_{1,3}: the plain leaf-peel prefix is not 1-cheap, the repair is
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    cs = find_k_cheap_forest(g, 1)
    assert verify_k_cheap(g, cs.vertices, 1).ok


def test_forest_finder_multi_component():
    g = build_graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8)])
    for k in range(0, 4):
        cs = find_k_cheap_forest(g, k)
        assert verify_k_cheap(g, cs.vertices, k).ok
