"""Shared builders and strategies for the test suite.

Random graphs are drawn through a seeded ``random.Random`` inside the
hypothesis composite so failures shrink on (n, p, seed) rather than on raw
edge lists; that is coarse but reproducible.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import zetakit
import zetakit.cli
from zetakit import cheap_sets
from zetakit.graph import Graph, build_graph
from zetakit.oracle import enumerate_small_graphs


# ---------------------------------------------------------------- builders

def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the hub at vertex 0."""
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def triangle_pendant() -> Graph:
    """Triangle 0-1-2 with a pendant 3 hanging off vertex 0."""
    return build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return build_graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-ish attachment tree on n vertices (n >= 1)."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_graph(n, edges)


def random_forest(n: int, seed: int) -> Graph:
    """Random forest: attachment tree with a fraction of edges dropped."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
    return build_graph(n, edges)


# ------------------------------------------------------------- strategies

@st.composite
def graphs(draw, min_n=1, max_n=16, ps=(0.1, 0.25, 0.5, 0.8)):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from(list(ps)))
    seed = draw(st.integers(0, 2**32 - 1))
    return gnp(n, p, seed)


@st.composite
def graphs_with_edges(draw, min_n=2, max_n=16):
    """Graphs guaranteed to contain at least one edge."""
    g = draw(graphs(min_n=min_n, max_n=max_n))
    if g.m == 0:
        u = draw(st.integers(0, g.n - 2))
        g = build_graph(g.n, list(g.edges()) + [(u, u + 1)])
    return g


def fail_first_verification(monkeypatch) -> list:
    """Make only the first `cheap_sets.verify_k_cheap` call report a failure.

    Returns the list of the sets passed to it, one entry per call."""
    real = cheap_sets.verify_k_cheap
    calls = []

    def verify(g, s, level, profile=None):
        calls.append(frozenset(s))
        res = real(g, s, level, profile)
        return replace(res, ok=False, reason="forced failure") if len(calls) == 1 else res

    monkeypatch.setattr(cheap_sets, "verify_k_cheap", verify)
    return calls


def count_calls(monkeypatch, module, name: str) -> list:
    """Count the calls of module.name, wrapped at every zetakit module binding.

    Returns the list that gets one entry per call."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (zetakit, zetakit.graph, zetakit.degeneracy, zetakit.bounds,
                zetakit.cheap_sets, zetakit.greedy, zetakit.oracle, zetakit.cli):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_fractions(monkeypatch) -> tuple[list, list]:
    """Count Fraction constructions at the Fraction bindings of the modules
    that sum weights, and Fraction arithmetic and order operators on the
    class itself.

    Returns (built, ops): one entry per construction, and the name of each
    operator run."""
    built, ops = [], []

    def construct(*args):
        built.append(args)
        return Fraction(*args)

    for mod in (zetakit.degeneracy, zetakit.bounds, zetakit.cheap_sets, zetakit.greedy):
        monkeypatch.setattr(mod, "Fraction", construct)

    def counted(name):
        real = getattr(Fraction, name)

        def op(self, other):
            ops.append(name)
            return real(self, other)
        return op

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__truediv__",
                 "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counted(name))
    return built, ops


def count_strips(monkeypatch) -> list:
    """Record each layer that a cheap-layer strip removes, i.e. each layer whose
    reader asks for the next one: one (adjacency stripped, layer size) entry
    per layer removed, in the order the strips remove them."""
    real = zetakit.degeneracy._strip
    removed = []

    def counted(adj, *args):
        for layer in real(adj, *args):
            yield layer
            removed.append((adj, len(layer)))

    monkeypatch.setattr(zetakit.degeneracy, "_strip", counted)
    return removed


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def dedup_suite():
    """Nonisomorphic graphs keyed by vertex count, n = 1..7."""
    return {n: list(enumerate_small_graphs(n, dedup=True)) for n in range(1, 8)}
