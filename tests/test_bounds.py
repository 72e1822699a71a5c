"""Exact-rational lower bounds and the lambda strengthening."""

from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rebuild_greedy
import zetakit
from conftest import (complete_bipartite, complete_graph, cycle_graph, gnp,
                      graphs, graphs_with_edges, path_graph, random_forest,
                      star_graph)
from zetakit.bounds import (GroupedBound, Inapplicable, _greedy_mis, baseline_bounds,
                            caro_wei, component_lambdas, forest_z_closed_form,
                            full_bound_report, independent_cheap_set,
                            select_dense_subset, strong_bound_component,
                            strong_bound_grouped, turan_zeta, z_bound)
from zetakit.degeneracy import cheap_vertices, zeta_profile, zeta_weight
from zetakit.graph import (GraphInputError, build_graph, closed_neighborhood,
                           connected_components)
from zetakit.oracle import exact_alpha_k


def all_components_regular(g):
    for comp in connected_components(g):
        degs = {g.degree(v) for v in comp}
        if len(degs) > 1:
            return False
    return True


def test_z_bound_requires_positive_k():
    with pytest.raises(GraphInputError):
        z_bound(path_graph(3), 0)
    with pytest.raises(GraphInputError):
        z_bound(path_graph(3), -2)


def test_turan_zeta_rejects_empty():
    with pytest.raises(GraphInputError):
        turan_zeta(build_graph(0, []))


def test_known_values():
    p6 = path_graph(6)
    assert z_bound(p6, 1) == 3
    assert z_bound(p6, 2) == 4                       # 6 * (1 / (1 + 1/2))
    assert caro_wei(p6) == 2 * Fraction(1, 2) + 4 * Fraction(1, 3)
    assert z_bound(complete_graph(5), 1) == 1
    assert z_bound(cycle_graph(5), 1) == Fraction(5, 3)
    assert turan_zeta(cycle_graph(5)) == Fraction(5, 3)


@given(graphs(max_n=16))
def test_results_are_exact_fractions(g):
    if g.n == 0:
        return
    prof = zeta_profile(g)
    for k in (1, 2, 3):
        assert isinstance(z_bound(g, k, prof), Fraction)
    assert isinstance(caro_wei(g), Fraction)
    assert isinstance(turan_zeta(g, prof), Fraction)


@given(graphs(max_n=16))
def test_z1_dominates_caro_wei_and_turan(g):
    if g.n == 0:
        return
    z1 = z_bound(g, 1)
    assert z1 >= caro_wei(g)
    assert z1 >= turan_zeta(g)


@given(graphs(max_n=16))
def test_z1_equals_caro_wei_iff_components_regular(g):
    if g.n == 0:
        return
    assert (z_bound(g, 1) == caro_wei(g)) == all_components_regular(g)


def test_equality_family_both_directions_exhaustive(dedup_suite):
    for n in range(1, 7):
        for g in dedup_suite[n]:
            assert (z_bound(g, 1) == caro_wei(g)) == all_components_regular(g)


@given(graphs(max_n=16))
def test_z_bound_monotone_in_k(g):
    if g.n == 0:
        return
    assert z_bound(g, 1) <= z_bound(g, 2) <= z_bound(g, 3) <= g.n


@given(graphs_with_edges(max_n=14))
@settings(max_examples=80, deadline=None)
def test_alpha_dominates_every_applicable_bound(g):
    prof = zeta_profile(g)
    alpha0 = exact_alpha_k(g, 0)[0]
    alpha1 = exact_alpha_k(g, 1)[0]
    alpha2 = exact_alpha_k(g, 2)[0]
    report = full_bound_report(g, prof)
    assert alpha0 >= report["z1"]
    assert alpha1 >= report["z2"]
    assert alpha2 >= report["z3"]
    for key in ("caro_wei", "turan_zeta", "strong_component", "strong_grouped"):
        val = report[key]
        if not isinstance(val, Inapplicable):
            assert alpha0 >= val, key
    for key, alpha in (("ch_a1", alpha1), ("caro_tuza_a1", alpha1),
                       ("ch_a2", alpha2)):
        val = report[key]
        if not isinstance(val, Inapplicable):
            assert alpha >= val, key


@given(graphs_with_edges(max_n=16))
@settings(max_examples=100)
def test_component_lambda_bookkeeping(g):
    prof = zeta_profile(g)
    s = independent_cheap_set(g, prof)
    comps = component_lambdas(g, prof, s)
    nbhd = {u for v in s for u in g.adj[v]}
    assert sum(c.s for c in comps) == len(s)
    assert sum(c.t for c in comps) == len(nbhd)
    assert sum(c.e for c in comps) == sum(len(g.adj[v]) for v in s)
    for c in comps:
        assert c.lam <= 1
        assert isinstance(c.lam, Fraction)
        assert len(c.vertices) == c.s + c.t
        if c.lam >= 0:       # the strong bound's weight clamp never binds
            assert all(prof.zeta[v] + c.lam >= 1 for v in c.vertices)


@given(graphs_with_edges(max_n=16))
@settings(max_examples=100)
def test_strong_component_dominates_z1_when_applicable(g):
    prof = zeta_profile(g)
    s = independent_cheap_set(g, prof)
    val = strong_bound_component(g, prof, s)
    if not isinstance(val, Inapplicable):
        assert val >= z_bound(g, 1, prof)


def assert_grouped_shape(g):
    prof = zeta_profile(g)
    got = strong_bound_grouped(g, prof)
    assert isinstance(got, GroupedBound)
    assert got.subset
    assert got.lam <= 1
    assert isinstance(got.value, Fraction)
    # the subset must be independent and uniformly cheap at its group zeta
    for v in got.subset:
        assert prof.zeta[v] == got.group_zeta == g.degree(v)
        assert not (g.adj[v] & got.subset)
    # so every denominator on N[S] is >= 1: the weight clamp never binds
    assert all(prof.zeta[v] + got.lam >= 1 for v in closed_neighborhood(g, got.subset))


@given(graphs(max_n=16))
@settings(max_examples=100)
def test_grouped_bound_shape(g):
    assert_grouped_shape(g)


def test_grouped_bound_shape_exhaustive(dedup_suite):
    for n in range(1, 8):
        for g in dedup_suite[n]:
            assert_grouped_shape(g)


# ── slow twins: the weight sums written out one Fraction term per vertex ────

def twin_z_bound(zeta, k):
    return sum((min(Fraction(1), 1 / (z + Fraction(1, k))) for z in zeta), Fraction(0))


def twin_lambda_bound(g, zeta, parts):
    """Each (vertex set, lambda) part weighs 1/(zeta + lambda), the rest 1/(zeta + 1)."""
    covered = set().union(*(vs for vs, _ in parts))
    total = sum((1 / (zeta[v] + lam) for vs, lam in parts for v in vs), Fraction(0))
    return total + sum((Fraction(1, zeta[v] + 1) for v in range(g.n) if v not in covered),
                       Fraction(0))


@given(graphs(max_n=16))
@settings(max_examples=100)
def test_weight_sums_match_per_vertex_twin(g):
    prof = zeta_profile(g)
    for k in (1, 2, 3):
        assert z_bound(g, k, prof) == twin_z_bound(prof.zeta, k)
    assert caro_wei(g) == sum((Fraction(1, len(a) + 1) for a in g.adj), Fraction(0))
    s = independent_cheap_set(g, prof)
    comps = component_lambdas(g, prof, s)
    got = strong_bound_component(g, prof, s)
    if all(c.lam >= 0 for c in comps):
        assert got == twin_lambda_bound(g, prof.zeta, [(c.vertices, c.lam) for c in comps])
    else:
        assert isinstance(got, Inapplicable)
    grouped = strong_bound_grouped(g, prof)
    nbhd = closed_neighborhood(g, grouped.subset)
    assert grouped.value == twin_lambda_bound(g, prof.zeta, [(nbhd, grouped.lam)])


# ── slow twin: the greedy independent set picked by a scan for the minimum ──

@given(graphs(min_n=0, max_n=20, ps=(0.0, 0.1, 0.25, 0.5, 0.8)), st.data())
@settings(max_examples=150)
def test_greedy_mis_matches_scan_twin(g, data):
    mask = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    pool = frozenset(compress(range(g.n), mask))
    assert _greedy_mis(g, pool) == rebuild_greedy.greedy_mis(g, pool)
    assert _greedy_mis(g, frozenset()) == frozenset()


def test_greedy_mis_matches_scan_twin_exhaustive(dedup_suite):
    for n in range(1, 8):
        for g in dedup_suite[n]:
            pool = cheap_vertices(g)
            assert _greedy_mis(g, pool) == rebuild_greedy.greedy_mis(g, pool)


# ── the class lemma behind _min_lambda_group ────────────────────────────────

def greedy_splits_by_class(g):
    """No edge of G[cheap] joins two zeta classes, and the greedy over all cheap
    vertices, restricted to a class, is the greedy over that class alone.

    Returns the number of classes checked."""
    zeta = zeta_profile(g).zeta
    cheap = cheap_vertices(g)
    for u in cheap:
        assert all(zeta[w] == zeta[u] for w in g.adj[u] & cheap), (g.edges(), u)
    mis = _greedy_mis(g, cheap)
    classes = {zeta[u] for u in cheap}
    for z in classes:
        cls = frozenset(u for u in cheap if zeta[u] == z)
        assert mis & cls == _greedy_mis(g, cls), (g.edges(), z)
    return len(classes)


@given(graphs(min_n=0, max_n=24, ps=(0.0, 0.1, 0.25, 0.5, 0.8)))
@settings(max_examples=150)
def test_greedy_splits_by_zeta_class(g):
    greedy_splits_by_class(g)


def test_greedy_splits_by_zeta_class_exhaustive(dedup_suite):
    counts = [greedy_splits_by_class(g) for n in range(1, 8) for g in dedup_suite[n]]
    assert sum(c > 1 for c in counts) > 100     # graphs with several classes are checked


# ── slow twin: every prefix's lambda recounted as a Fraction ────────────────

def dense_subset_agrees(g, s):
    """select_dense_subset(g, s) equals the twin's; True when the least lambda is tied."""
    lams = rebuild_greedy.prefix_lambdas(g, s)
    assert select_dense_subset(g, s) == rebuild_greedy.dense_subset(g, s)[1]
    least = min(lam for lam, _ in lams)
    return sum(lam == least for lam, _ in lams) > 1


@given(graphs(max_n=20, ps=(0.1, 0.25, 0.5)), st.data())
@settings(max_examples=150)
def test_select_dense_subset_matches_prefix_twin(g, data):
    mask = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    s = _greedy_mis(g, frozenset(compress(range(g.n), mask)))
    if s:
        dense_subset_agrees(g, s)


def test_select_dense_subset_matches_prefix_twin_exhaustive(dedup_suite):
    ties = 0
    for n in range(1, 8):
        for g in dedup_suite[n]:
            for pool in (cheap_vertices(g), frozenset(range(n))):
                ties += dense_subset_agrees(g, _greedy_mis(g, pool))
    assert ties > 100          # the larger-subset tie rule is exercised


def test_zeta_weight_builds_one_fraction_and_dense_subset_none(monkeypatch):
    """Counted at the modules' Fraction bindings."""
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(zetakit.degeneracy, "Fraction", counted)
    monkeypatch.setattr(zetakit.bounds, "Fraction", counted)
    for g in (gnp(60, 0.1, 1), gnp(40, 0.3, 2), random_forest(50, 3), star_graph(7),
              complete_bipartite(3, 5)):
        prof = zeta_profile(g)
        for shift in (Fraction(1, 3), Fraction(1, 2), 1, Fraction(-5, 2)):
            built.clear()
            zeta_weight(prof.zeta, shift)
            assert len(built) == 1
        s = independent_cheap_set(g, prof)
        built.clear()
        assert select_dense_subset(g, s) <= s
        assert built == []


@given(graphs_with_edges(max_n=14))
def test_select_dense_subset_is_contained_prefix(g):
    prof = zeta_profile(g)
    s = independent_cheap_set(g, prof)
    sub = select_dense_subset(g, s)
    assert sub <= s
    assert sub


def test_independent_cheap_set_properties():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    s = independent_cheap_set(g)
    # within {1, 2, 3}: 1-2 adjacent, 3 isolated from both
    assert s in ({1, 3}, {2, 3})


def test_component_lambdas_reject_bad_seed():
    g = path_graph(4)
    prof = zeta_profile(g)
    with pytest.raises(GraphInputError):
        component_lambdas(g, prof, frozenset())
    with pytest.raises(GraphInputError):
        component_lambdas(g, prof, frozenset({0, 1}))    # not independent


def test_baseline_gating():
    report = baseline_bounds(path_graph(5))
    assert isinstance(report["caro_tuza_a1"], Inapplicable)   # leaves present
    report = baseline_bounds(cycle_graph(5))
    assert report["caro_tuza_a1"] == 5 * Fraction(3, 6)
    assert report["ch_a2"] == Fraction(3 * 5, 2 + 3)


@given(st.integers(1, 64), st.integers(0, 10**6), st.integers(0, 5))
@settings(max_examples=100)
def test_forest_closed_form_matches_z(n, seed, k):
    g = random_forest(n, seed)
    isolated = sum(1 for v in range(g.n) if not g.adj[v])
    assert forest_z_closed_form(g.n, isolated, k) == z_bound(g, k + 1)


def test_forest_closed_form_values():
    # star: no isolated vertices, 8 vertices total
    assert forest_z_closed_form(8, 0, 1) == Fraction(16, 3)
    assert forest_z_closed_form(5, 5, 3) == 5          # edgeless
    assert forest_z_closed_form(0, 0, 2) == 0


def test_full_report_keys_and_empty_graph():
    report = full_bound_report(path_graph(4))
    assert list(report) == ["z1", "z2", "z3", "caro_wei", "turan_zeta",
                            "strong_component", "strong_grouped", "ch_a1",
                            "ch_a2", "caro_tuza_a1", "forest_zk"]
    empty = full_bound_report(build_graph(0, []))
    assert empty["z1"] == 0 and empty["caro_wei"] == 0
    assert isinstance(empty["turan_zeta"], Inapplicable)
    assert isinstance(empty["strong_grouped"], Inapplicable)


def test_forest_zk_only_on_forests():
    rep_forest = full_bound_report(path_graph(6))
    assert rep_forest["forest_zk"] == rep_forest["z2"] == 4
    rep_cycle = full_bound_report(cycle_graph(6))
    assert isinstance(rep_cycle["forest_zk"], Inapplicable)


def test_star_bounds():
    g = star_graph(9)                                   # K_{1,9}
    assert z_bound(g, 1) == 5
    assert caro_wei(g) == 9 * Fraction(1, 2) + Fraction(1, 10)
    assert z_bound(g, 1) >= caro_wei(g)


def test_complete_bipartite_bounds():
    g = complete_bipartite(3, 4)
    assert z_bound(g, 1) == Fraction(7, 4)
    assert exact_alpha_k(g, 0)[0] == 4
