"""Exact oracles, the equality-family recognizer, generators, enumeration."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, gnp, graphs, path_graph
from zetakit.bounds import z_bound
from zetakit.degeneracy import Residual, cheap_vertices, zeta_oracle, zeta_profile
from zetakit.graph import (Graph, GraphInputError, build_graph, closed_neighborhood, is_forest,
                           remove_vertices)
from zetakit.oracle import _keeps_zeta
from zetakit.oracle import (GeneratorSpec, alpha_k_subset_enumeration,
                            canonical_mask, enumerate_small_graphs,
                            exact_alpha_k, example_layers, generate,
                            is_in_family_F, layered_example_graph)

DEDUP_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


# ── exact alpha ─────────────────────────────────────────────────────────────


@given(graphs(max_n=10), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_two_oracles_agree(g, k):
    size, witness = exact_alpha_k(g, k)
    assert size == alpha_k_subset_enumeration(g, k)
    assert len(witness) == size
    assert max((len(g.adj[v] & witness) for v in witness), default=0) <= k


def test_alpha_known_values():
    assert exact_alpha_k(cycle_graph(7), 0)[0] == 3
    assert exact_alpha_k(complete_graph(6), 0)[0] == 1
    assert exact_alpha_k(path_graph(10), 0)[0] == 5
    assert exact_alpha_k(path_graph(10), 1)[0] == 7    # drop every third vertex
    assert exact_alpha_k(complete_graph(4), 3)[0] == 4  # whole graph qualifies
    assert exact_alpha_k(build_graph(0, []), 0) == (0, frozenset())


def test_alpha_size_guards():
    big = build_graph(41, [(0, 1)])
    with pytest.raises(GraphInputError):
        exact_alpha_k(big, 0)
    mid = build_graph(21, [(0, 1), (1, 2)])
    with pytest.raises(GraphInputError):
        exact_alpha_k(mid, 1)
    # explicit limit overrides the guard
    assert exact_alpha_k(big, 0, limit=41)[0] == 40
    with pytest.raises(GraphInputError):
        exact_alpha_k(path_graph(3), -1)
    with pytest.raises(GraphInputError):
        alpha_k_subset_enumeration(build_graph(13, []), 0)


def test_max_degree_fast_path():
    g = cycle_graph(30)     # degree 2 everywhere, n over the k>=1 guard
    assert exact_alpha_k(g, 2) == (30, frozenset(range(30)))


# ── equality family ─────────────────────────────────────────────────────────


def test_family_matches_equality_on_small_suite(dedup_suite):
    for n in range(1, 7):
        for g in dedup_suite[n]:
            member, parts = is_in_family_F(g)
            expect = exact_alpha_k(g, 0)[0] == z_bound(g, 1)
            assert member == expect
            if parts is not None:
                assert member
                seen = set()
                for block in parts:
                    assert not (block & seen)
                    seen |= block
                    assert all(v in g.adj[u]
                               for u in block for v in block if u != v)
                assert seen == set(range(g.n))


def block_tests_against_recompute(g, rng):
    """Delete random live vertices from a Residual of g one batch at a time; at
    each step, for every block the clique peel may test (the closed
    neighbourhood of a minimum-degree vertex whose members all have zeta equal
    to that degree, clique or not), compare _keeps_zeta with deleting the block
    from the rebuilt live graph and recomputing zeta by zeta_oracle.  Returns
    the answers seen."""
    r, seen = Residual(g), []
    while r.n:
        live = list(r.vertices())
        dmin = min(r.deg[v] for v in live)
        for u in live:
            block = closed_neighborhood(r, (u,))
            if r.deg[u] == dmin and all(r.zeta[v] == dmin for v in block):
                dead = {v for v in range(g.n) if not r.alive[v]} | block
                sub = remove_vertices(g, dead)
                kept = [r.zeta[v] for v in sub.old_of] == list(zeta_oracle(sub.graph))
                assert _keeps_zeta(r, block, dmin) == kept, (g.edges(), sorted(dead))
                seen.append(kept)
        r.delete(rng.sample(live, rng.randint(1, min(3, len(live)))))
    return seen


def test_block_test_matches_delete_and_recompute_on_small_suite(dedup_suite):
    """The clique peel's block test, which deletes nothing, says what deleting
    the block and recomputing zeta says, on every graph with n <= 7."""
    seen = []
    for n, suite in dedup_suite.items():
        for i, g in enumerate(suite):
            seen += block_tests_against_recompute(g, random.Random(n * 10**4 + i))
    assert True in seen and False in seen


@given(graphs(max_n=16, ps=(0.25, 0.5, 0.8)), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_block_test_matches_delete_and_recompute(g, seed):
    block_tests_against_recompute(g, random.Random(seed))


def test_equality_without_clique_cover_uses_fallback():
    # alpha0 == Z_1 == 2 but vertex 0 sits in no triangle, so no clique
    # partition with blocks of size zeta+1 exists; membership comes from
    # the exact route and carries no witness
    g = build_graph(6, [(0, 1), (0, 2), (1, 4), (1, 5), (2, 3), (2, 5),
                        (3, 4), (3, 5), (4, 5)])
    assert exact_alpha_k(g, 0)[0] == z_bound(g, 1) == 2
    member, parts = is_in_family_F(g)
    assert member and parts is None


def test_family_members_and_non_members():
    member, parts = is_in_family_F(complete_graph(5))
    assert member and parts == (frozenset(range(5)),)
    member, parts = is_in_family_F(cycle_graph(3))
    assert member
    assert not is_in_family_F(cycle_graph(5))[0]
    assert not is_in_family_F(star_graph_16 := generate(
        GeneratorSpec("star", n=16)))[0]
    assert is_in_family_F(build_graph(3, []))[0]       # three K_1 blocks
    member, parts = is_in_family_F(path_graph(6))      # three K_2 blocks
    assert member and parts is not None and len(parts) == 3


def test_family_recognizer_size_cap():
    with pytest.raises(GraphInputError):
        is_in_family_F(build_graph(5000, []), limit=4096)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_generated_family_members_pass(seed):
    rng = random.Random(seed)
    sizes = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 6)))
    g = generate(GeneratorSpec("family-F", sizes=sizes,
                               extra_edges=rng.randrange(0, 8), seed=seed))
    member, parts = is_in_family_F(g)
    assert member
    # block structure carries over: zeta never rose above the clique sizes
    assert sorted(len(b) for b in parts) == sorted(sizes)


# ── showcase graph ──────────────────────────────────────────────────────────


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_showcase_graph_profile(k):
    g = layered_example_graph(k)
    layers = example_layers(k)
    assert g.n == k * (2 * k + 1)
    assert [len(layer) for layer in layers] == list(range(1, 2 * k + 1))
    prof = zeta_profile(g)
    for i, layer in enumerate(layers, start=1):     # layer I_i has i vertices
        expect = i + 1 if i <= 2 * k - 2 else 2 * k - 1
        assert all(prof.zeta[v] == expect for v in layer)
    if k >= 2:
        assert cheap_vertices(g, prof) == frozenset(layers[0]) | frozenset(layers[-1])
    alpha0, witness = exact_alpha_k(g, 0, limit=64)
    assert alpha0 == k * (k + 1)


# ── generators ──────────────────────────────────────────────────────────────


def test_generator_families_shapes():
    assert generate(GeneratorSpec("path", n=5)).m == 4
    assert generate(GeneratorSpec("cycle", n=5)).m == 5
    assert generate(GeneratorSpec("complete", n=5)).m == 10
    g = generate(GeneratorSpec("star", n=9))
    assert g.m == 8 and g.degree(0) == 8
    g = generate(GeneratorSpec("triangle-pendant"))
    assert (g.n, g.m) == (4, 4)
    g = generate(GeneratorSpec("example1", k=2))
    assert (g.n, g.m) == (10, 20)
    g = generate(GeneratorSpec("disjoint-cliques", sizes=(3, 4)))
    assert (g.n, g.m) == (7, 3 + 6)
    g = generate(GeneratorSpec("random-forest", n=30, seed=3))
    assert is_forest(g)
    g1 = generate(GeneratorSpec("random-gnp", n=12, p=0.4, seed=9))
    g2 = generate(GeneratorSpec("random-gnp", n=12, p=0.4, seed=9))
    assert g1.adj == g2.adj


def test_generator_errors():
    with pytest.raises(GraphInputError):
        generate(GeneratorSpec("no-such-family", n=3))
    with pytest.raises(GraphInputError):
        generate(GeneratorSpec("path"))                # n missing
    with pytest.raises(GraphInputError):
        generate(GeneratorSpec("cycle", n=2))
    with pytest.raises(GraphInputError):
        generate(GeneratorSpec("example1", k=0))
    with pytest.raises(GraphInputError):
        generate(GeneratorSpec("disjoint-cliques", sizes=(3, 0)))


def test_family_f_generator_zeta_preserved():
    sizes = (3, 3, 4)
    base = generate(GeneratorSpec("disjoint-cliques", sizes=sizes))
    g = generate(GeneratorSpec("family-F", sizes=sizes, extra_edges=3, seed=2))
    assert g.n == base.n and g.m >= base.m
    assert list(zeta_profile(g).zeta) == list(zeta_profile(base).zeta)


# ── enumeration ─────────────────────────────────────────────────────────────


def test_labeled_enumeration_counts():
    assert sum(1 for _ in enumerate_small_graphs(3)) == 8
    assert sum(1 for _ in enumerate_small_graphs(4)) == 64


def test_dedup_counts(dedup_suite):
    for n, expect in DEDUP_COUNTS.items():
        assert len(dedup_suite[n]) == expect


def test_enumeration_guards():
    with pytest.raises(GraphInputError):
        list(enumerate_small_graphs(0))
    with pytest.raises(GraphInputError):
        list(enumerate_small_graphs(9))


@given(graphs(min_n=2, max_n=6), st.data())
@settings(max_examples=80)
def test_canonical_mask_permutation_invariant(g, data):
    perm = data.draw(st.permutations(list(range(g.n))))
    relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_mask(g) == canonical_mask(relabeled)


def test_canonical_mask_separates_non_isomorphic():
    assert canonical_mask(path_graph(4)) != canonical_mask(star_graph_4())


def star_graph_4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])
