"""Acceptance gate: the ten release criteria, one test function each.

Every test prints a single ``criterion N PASS`` line once its assertions
hold (visible with -s; with -v each criterion also shows as its own
PASSED/FAILED row).  Comparisons are exact — int/Fraction — and the
runtime ceilings from the release checklist are asserted where stated.
"""

import math
import random
import time
from fractions import Fraction

from conftest import gnp, random_forest
from zetakit.bounds import (Inapplicable, caro_wei, forest_z_closed_form,
                            full_bound_report, z_bound)
from zetakit.cli import (GraphDocument, parse_dimacs, parse_edge_list,
                         serialize_dimacs, serialize_edge_list)
from zetakit.degeneracy import cheap_vertices, zeta_oracle, zeta_profile
from zetakit.graph import Graph, build_graph, connected_components
from zetakit.greedy import (cheap_greedy, forest_k_greedy, min_greedy,
                            one_cheap_greedy, two_cheap_greedy)
from zetakit.oracle import (GeneratorSpec, alpha_k_subset_enumeration,
                            exact_alpha_k, example_layers, generate,
                            is_in_family_F, layered_example_graph)


def _subset_max_zeta(g: Graph) -> list[int]:
    """The definition, verbatim: max over induced subgraphs of min degree."""
    best = [0] * g.n
    for mask in range(1, 1 << g.n):
        sub = [v for v in range(g.n) if mask >> v & 1]
        inside = set(sub)
        dmin = min(len(g.adj[v] & inside) for v in sub)
        for v in sub:
            best[v] = max(best[v], dmin)
    return best


def _path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_criterion_01_zeta_profile_matches_oracles(dedup_suite):
    t0 = time.perf_counter()
    rng = random.Random(0xC1)
    for _ in range(500):
        n = rng.randrange(1, 65)
        p = rng.choice((0.1, 0.3, 0.6))
        g = gnp(n, p, rng.randrange(10**9))
        assert tuple(zeta_profile(g).zeta) == zeta_oracle(g)
    checked = 0
    for n in range(1, 8):
        for g in dedup_suite[n]:
            assert list(zeta_profile(g).zeta) == _subset_max_zeta(g)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 500 random + {checked} exhaustive graphs, "
          f"{elapsed:.1f}s")


def _random_edge_set(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def test_criterion_02_zeta_profile_scales_linearly():
    t0 = time.perf_counter()
    rng = random.Random(0xC2)
    n = 20_000
    small = build_graph(n, _random_edge_set(n, 200_000, rng))
    large = build_graph(n, _random_edge_set(n, 400_000, rng))

    def best_of_two(g: Graph) -> float:
        times = []
        for _ in range(2):
            fresh = Graph(g.n, g.adj, g.m)     # a Graph keeps its peel: time a cold one
            t = time.perf_counter()
            prof = zeta_profile(fresh)
            times.append(time.perf_counter() - t)
            assert len(prof.zeta) == n
        return min(times)

    t_small = best_of_two(small)
    t_large = best_of_two(large)
    elapsed = time.perf_counter() - t0
    assert t_large <= 3.0 * t_small, (t_small, t_large)
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 2e5 edges {t_small * 1000:.0f}ms, "
          f"4e5 edges {t_large * 1000:.0f}ms, ratio "
          f"{t_large / t_small:.2f} <= 3")


def test_criterion_03_showcase_graph_regression():
    t0 = time.perf_counter()
    for k in (2, 3, 4):
        g = layered_example_graph(k)
        layers = example_layers(k)
        prof = zeta_profile(g)
        for j, layer in enumerate(layers, 1):
            want = j + 1 if j <= 2 * k - 2 else 2 * k - 1
            assert all(prof.zeta[v] == want for v in layer), (k, j)
        assert cheap_vertices(g, prof) == frozenset(layers[0]) | frozenset(layers[-1])
        assert len(cheap_greedy(g).chosen) == k * (k + 1)
        worst_case = (k - 1) ** 2 + 2 * k       # 1+3+...+(2k-3) + 2k
        for seed in range(200):
            assert len(min_greedy(g, seed=seed).chosen) <= worst_case, (k, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 3 PASS: k=2,3,4 layer profiles, cheap sets, greedy "
          f"sizes, 600 seeded runs, {elapsed:.1f}s")


def test_criterion_04_bound_soundness_chain(dedup_suite):
    t0 = time.perf_counter()
    rng = random.Random(0xC4)
    pool = [g for n in range(1, 7) for g in dedup_suite[n]]
    for _ in range(2000):
        n = rng.randrange(1, 15)
        pool.append(gnp(n, rng.choice((0.1, 0.3, 0.5, 0.7)),
                        rng.randrange(10**9)))
    violations = 0
    for g in pool:
        prof = zeta_profile(g)
        report = full_bound_report(g, prof)
        a0 = Fraction(exact_alpha_k(g, 0)[0])
        a1 = Fraction(exact_alpha_k(g, 1)[0])
        a2 = Fraction(exact_alpha_k(g, 2)[0])
        z1, z2, z3 = report["z1"], report["z2"], report["z3"]
        checks = [a0 >= z1, z1 >= report["caro_wei"], a1 >= z2, a2 >= z3]
        if not isinstance(report["turan_zeta"], Inapplicable):
            checks.append(z1 >= report["turan_zeta"])
        for key in ("strong_component", "strong_grouped"):
            if not isinstance(report[key], Inapplicable):
                checks.append(a0 >= report[key])
        violations += sum(1 for ok in checks if not ok)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 300.0
    print(f"criterion 4 PASS: {len(pool)} graphs, 0 violations, "
          f"{elapsed:.1f}s")


def test_criterion_05_equality_iff_components_regular(dedup_suite):
    violations = 0
    for n in range(1, 7):
        for g in dedup_suite[n]:
            regular = all(
                len({len(g.adj[v]) for v in comp}) == 1
                for comp in connected_components(g))
            equal = z_bound(g, 1) == caro_wei(g)
            if equal != regular:
                violations += 1
    assert violations == 0
    print("criterion 5 PASS: z1 == caro_wei exactly on component-regular "
          "graphs, n <= 6 exhaustive, both directions")


def test_criterion_06_path_tightness():
    for k in range(1, 7):
        g = _path(3 * k)
        run = one_cheap_greedy(g)
        assert len(run.chosen) == 2 * k, k
        assert z_bound(g, 2) == Fraction(2 * k), k
    print("criterion 6 PASS: one_cheap_greedy(P_3k) = 2k = z2 for k=1..6")


def test_criterion_07_family_f_characterizes_equality(dedup_suite):
    mismatches = 0
    for n in range(1, 8):
        for g in dedup_suite[n]:
            member, _ = is_in_family_F(g)
            alpha0 = alpha_k_subset_enumeration(g, 0)
            if member != (Fraction(alpha0) == z_bound(g, 1)):
                mismatches += 1
    assert mismatches == 0
    rng = random.Random(0xC7)
    for trial in range(60):
        sizes = tuple(rng.randrange(1, 7)
                      for _ in range(rng.randrange(1, 6)))
        g = generate(GeneratorSpec("family-F", sizes=sizes,
                                   extra_edges=rng.randrange(0, 5),
                                   seed=trial))
        assert is_in_family_F(g)[0], (sizes, trial)
    print("criterion 7 PASS: membership <=> alpha0 == z1 on 1252 graphs, "
          "60 generator outputs recognized")


def test_criterion_08_greedy_certificates():
    t0 = time.perf_counter()
    rng = random.Random(0xC8)
    algos = ((min_greedy, 0), (cheap_greedy, 0),
             (one_cheap_greedy, 1), (two_cheap_greedy, 2))
    anomaly_entries = 0
    runs = 0
    for _ in range(2000):
        n = rng.randrange(1, 33)
        g = gnp(n, rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)),
                rng.randrange(10**9))
        for algo, level in algos:
            run = algo(g)
            runs += 1
            assert run.level == level
            assert len(run.chosen) >= math.ceil(run.certificate)
            assert run.certificate >= z_bound(g, level + 1)
            chosen = run.chosen
            assert all(len(g.adj[v] & chosen) <= level for v in chosen)
            anomaly_entries += len(run.anomalies)
    elapsed = time.perf_counter() - t0
    assert anomaly_entries == 0
    print(f"criterion 8 PASS: {runs} greedy runs on 2000 graphs, "
          f"0 anomalies, {elapsed:.1f}s")


def test_criterion_09_forest_closed_form():
    t0 = time.perf_counter()
    rng = random.Random(0xC9)
    for trial in range(500):
        n = rng.randrange(1, 65)
        g = random_forest(n, rng.randrange(10**9))
        isolated = sum(1 for a in g.adj if not a)
        for k in range(6):
            closed = forest_z_closed_form(g.n, isolated, k)
            assert closed == z_bound(g, k + 1), (trial, k)
            assert len(forest_k_greedy(g, k).chosen) >= math.ceil(closed)
            if g.n <= 16:
                assert exact_alpha_k(g, k)[0] >= closed, (trial, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 9 PASS: 500 forests x k=0..5, closed form exact, "
          f"{elapsed:.1f}s")


def _labeled_edges(doc: GraphDocument) -> set[frozenset[str]]:
    return {frozenset((doc.labels[u], doc.labels[v]))
            for u, v in doc.graph.edges()}


def test_criterion_10_format_round_trip():
    rng = random.Random(0xCA)
    for trial in range(100):
        n = rng.randrange(2, 25)
        g = gnp(n, rng.choice((0.15, 0.3, 0.6)), rng.randrange(10**9))
        # the edge-list format cannot carry isolated vertices: attach them
        strays = [v for v in range(n) if not g.adj[v]]
        if strays:
            extra = [(v, rng.choice([w for w in range(n) if w != v]))
                     for v in strays]
            g = build_graph(n, list(g.edges()) + extra)
        doc = GraphDocument(g, tuple(f"v{i}" for i in range(n)), "edges")

        back = parse_dimacs(serialize_dimacs(doc))
        assert back.graph.adj == g.adj, trial

        back = parse_edge_list(serialize_edge_list(doc))
        assert _labeled_edges(back) == _labeled_edges(doc), trial
        assert back.graph.n == n
    print("criterion 10 PASS: 100 graphs, both formats, adjacency identical")
