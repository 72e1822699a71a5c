"""Certified greedy algorithms for k-independent sets.

Every algorithm follows the same round structure: strip isolated vertices
(each is worth exactly 1), find a cheap structure S in the working graph,
bank its exact-rational contribution, delete N[S], repeat.  The banked
certificate is a true lower bound on the optimum, and the chosen set always
has at least ceil(certificate) vertices — that invariant is what makes these
greedies "certified" rather than heuristic.

One round loop runs every algorithm on a single `Residual`: zeta is computed once
per run and repaired locally after each round's deletion, so a round costs its
finder's search plus work near N[S], with no rebuild.  The search is heap
operations for min_greedy and for the 1-cheap and 2-cheap rounds that the
residual's kept cheap layers answer (C on the residual, the second layer D on
a residual of its own, brought up to date in one batch when a round reads
it); a strip of D's residual from D down, rolled back afterwards, for the
2-cheap rounds that need a layer below D; a scan of the live graph
for cheap_greedy; and for forest_k_greedy a scan plus leaf repairs that
recount N[S] over the tree processed so far.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable

from .bounds import _greedy_mis, _lambda_components, _min_lambda_group
from .cheap_sets import (CheapSet, _weighed_neighborhood, find_1_cheap, find_2_cheap,
                         find_k_cheap_forest)
from .degeneracy import Residual, cheap_vertices, zeta_weight
from .graph import Graph, GraphInputError, closed_neighborhood, is_forest


@dataclass(frozen=True)
class TraceStep:
    kind: str
    picked: tuple[int, ...]         # original vertex ids added this round
    removed: tuple[int, ...]        # original vertex ids deleted this round
    contribution: Fraction
    lam: Fraction | None = None


@dataclass(frozen=True)
class GreedyRun:
    """A greedy's result.  `anomalies` is always (), as a finder whose candidate
    fails verification raises instead; it stays because the benchmark pipeline
    (`zkbench/pipeline.py`) and the pinned run digest in the tests read it."""
    chosen: frozenset[int]
    certificate: Fraction
    level: int                      # max degree allowed inside the chosen set
    trace: tuple[TraceStep, ...]
    anomalies: tuple[dict, ...] = ()


def _drive(g: Graph, level: int, pick: Callable[[Residual], TraceStep]) -> GreedyRun:
    """Run rounds on one Residual until it is empty.

    A round with isolated vertices banks them as one block; otherwise `pick`
    returns the round's step, which is banked and its removed set deleted.  New
    isolated vertices can only be among the vertices whose degree changed.
    """
    r = Residual(g)
    chosen: set[int] = set()
    trace: list[TraceStep] = []
    isolated = [v for v in r.vertices() if not r.adj[v]]
    while r.n:
        if isolated:
            block = tuple(isolated)
            step = TraceStep("isolated-block", block, block, Fraction(len(block)))
        else:
            step = pick(r)
        chosen.update(step.picked)
        trace.append(step)
        isolated = sorted(v for v in r.delete(step.removed) if not r.adj[v])
    certificate = sum((step.contribution for step in trace), Fraction(0))
    return GreedyRun(frozenset(chosen), certificate, level, tuple(trace))


def _with_finder(g: Graph, level: int, finder: Callable[[Residual], CheapSet]) -> GreedyRun:
    """Drive rounds that take the finder's verified cheap set, delete its N[S]
    and bank the weight of N[S] that the verification computed."""
    def pick(r: Residual) -> TraceStep:
        cs = finder(r)
        return TraceStep(cs.kind, tuple(sorted(cs.vertices)), tuple(sorted(cs.closed)), cs.weight)

    return _drive(g, level, pick)


def min_greedy(g: Graph, seed: int | None = None) -> GreedyRun:
    """Independent set: repeatedly take a minimum-degree vertex, drop N[v].

    Deterministic smallest-id tie-break by default; pass a seed for a
    randomized tie-break among the minimum-degree vertices, drawn in
    ascending id order.

    The picks come from a heap of (degree, id) entries.  Only the live
    neighbours of a removed N[v] lose degree, and each gets a fresh entry, so
    a live vertex's least entry is its current one, entries of deleted
    vertices are skipped, and a round costs O(deg · log n) heap work besides
    the deletion and its coreness repair.
    """
    rng = random.Random(seed) if seed is not None else None
    heap = [(len(a), v) for v, a in enumerate(g.adj)]
    heapify(heap)
    fell: set[int] = set()                 # vertices next to the last removed N[v]

    def pick(r: Residual) -> TraceStep:
        adj, alive = r.adj, r.alive
        for x in fell:
            if alive[x]:
                heappush(heap, (len(adj[x]), x))
        low, v = heappop(heap)
        while not alive[v]:
            low, v = heappop(heap)
        if rng is not None:
            ties = [v]
            while heap and heap[0][0] == low:
                u = heappop(heap)[1]
                if alive[u]:
                    ties.append(u)
            v = rng.choice(ties)
            for u in ties:
                if u != v:
                    heappush(heap, (low, u))
        fell.clear()
        for w in adj[v]:
            fell.update(adj[w])
        fell.difference_update(adj[v])
        fell.discard(v)
        closed, weight = _weighed_neighborhood(r, r.zeta, (v,), 0)
        return TraceStep("single-cheap", (v,), tuple(sorted(closed)), weight)

    return _drive(g, 0, pick)


def cheap_greedy(g: Graph) -> GreedyRun:
    """Independent set certified by lambda-strengthened accounting.

    Each round takes the cheap vertices once and builds two candidates: S1,
    a maximal independent subset accounted per bipartite component, and S2,
    the grouped minimum-lambda subset of S1's zeta classes, which always
    applies.  S1 wins when its component lambdas are all >= 0 and its
    smallest is <= S2's lambda.  The round banks the weight of N[S] at the
    winner's lambdas.  The certificate is >= Z_1 of the input.
    """
    def pick(r: Residual) -> TraceStep:
        zeta = r.zeta                      # a Residual is its own zeta profile
        s1 = _greedy_mis(r, cheap_vertices(r))
        comps = _lambda_components(r, s1)
        lam1 = min(c.lam for c in comps)
        lam2, _, s2 = _min_lambda_group(r, zeta, s1)
        if 0 <= lam1 <= lam2:
            s, lam, kind = s1, lam1, "component-lambda"
            contribution = sum((zeta_weight((zeta[v] for v in c.vertices), c.lam)
                                for c in comps), Fraction(0))
        else:
            s, lam, kind = s2, lam2, "grouped-lambda"
            contribution = zeta_weight((zeta[v] for v in closed_neighborhood(r, s)), lam)
        return TraceStep(kind, tuple(sorted(s)), tuple(sorted(closed_neighborhood(r, s))),
                         contribution, lam)

    return _drive(g, 0, pick)


def one_cheap_greedy(g: Graph) -> GreedyRun:
    """1-independent set of size >= ceil(Z_2(G)) via 1-cheap sets."""
    return _with_finder(g, 1, find_1_cheap)


def two_cheap_greedy(g: Graph) -> GreedyRun:
    """2-independent set of size >= ceil(Z_3(G)) via 2-cheap sets.

    Each round takes `find_2_cheap`'s one verified candidate; a candidate that
    fails verification raises CheapSetSearchError.
    """
    return _with_finder(g, 2, find_2_cheap)


def forest_k_greedy(g: Graph, k: int) -> GreedyRun:
    """k-independent set in a forest, size >= ceil(Z_{k+1}(G))."""
    if k < 0:
        raise GraphInputError(f"level must be >= 0, got {k}")
    if not is_forest(g):
        raise GraphInputError("forest_k_greedy requires a forest")
    return _with_finder(g, k, lambda r: find_k_cheap_forest(r, k))
