"""Certified greedy algorithms for k-independent sets.

Every algorithm follows the same round structure: strip isolated vertices
(each is worth exactly 1), find a cheap structure S in the working graph,
bank its exact-rational contribution, delete N[S], repeat.  The banked
certificate is a true lower bound on the optimum, and the chosen set always
has at least ceil(certificate) vertices — that invariant is what makes these
greedies "certified" rather than heuristic.

One round loop runs every algorithm on a single `Residual`, which reads the
Graph's frozen neighbour sets: zeta is computed once per Graph, by the peel
that the Graph keeps and each run's Residual copies, and repaired locally
after each round's deletion, so a round costs its finder's search plus work
near N[S], with no rebuild.  The search is heap
operations for min_greedy and for the 1-cheap and 2-cheap rounds that the
residual's kept cheap layers answer (C on the residual, the second layer D on
a residual of its own, brought up to date in one batch when a round reads
it); a read-only strip of D's residual from D down for the 2-cheap rounds
that need a layer below D; a pass over the kept C for cheap_greedy (its
docstring says which deletes pay for it); and for forest_k_greedy a scan
plus leaf repairs that recount N[S] over the tree processed so far.

Each greedy runs its whole call with Python's cyclic garbage collector
paused (`graph._nogc`), and leaves the collector as it found it.  A run
keeps long-lived containers (the trace, the kept layers' sets and heaps),
and unpaused, its allocations started 2-18 collections per call at n = 2000
when each residual still copied every neighbour set, each of which
traversed those containers without being able to free anything: the only
reference cycles a run makes are its own kept cheap layers, live until it
returns.  At return the layers of a cheap_greedy, 1-cheap or 2-cheap run
become one garbage island, which the first collection after the call
frees.  The residuals read the Graph's frozen neighbour sets and keep only
per-vertex lists, so the island is a few dozen containers whatever n: 10
objects for cheap_greedy's C and 35 or 48 for a 1- or 2-cheap run, at
n = 1000 to 4000 (G(n, 8/n) or a random tree), where a neighbour set copied
per residual made it n + 10 and 2n + 35 to 2n + 48; min_greedy and
forest_k_greedy leave none.  The pause took greedy-sparse's `graphs_per_s`
from 9.45 to 9.85 (median of twelve alternating pairs, each won) and, on
G(10^5, 4 * 10^5 edges) in a plain process, `min_greedy` from 2.1-2.4 s to
1.4-1.6 s and `two_cheap_greedy` from 5.0-5.3 s to 4.1-4.6 s (CPython 3.11,
2-vCPU Xeon).
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import lcm
from typing import Callable

from .bounds import _greedy_mis, _lambda_parts, _min_lambda_group
from .cheap_sets import (CheapSet, _weighed_neighborhood, find_1_cheap, find_2_cheap,
                         find_k_cheap_forest)
from .degeneracy import Residual, _weigh
from .graph import Graph, GraphInputError, _nogc, closed_neighborhood, is_forest


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
    The certificate is summed in integers over the lcm of the steps'
    denominators, one Fraction at the end.
    """
    r = Residual(g)
    chosen: set[int] = set()
    trace: list[TraceStep] = []
    deg = r.deg
    isolated = [v for v in r.vertices() if not deg[v]]
    while r.n:
        if isolated:
            block = tuple(isolated)
            step = TraceStep("isolated-block", block, block, Fraction(len(block)))
        else:
            step = pick(r)
        chosen.update(step.picked)
        trace.append(step)
        isolated = sorted(v for v in r.delete(step.removed) if not deg[v])
    den = lcm(*(step.contribution.denominator for step in trace))
    num = sum(t.contribution.numerator * (den // t.contribution.denominator) for t in trace)
    return GreedyRun(frozenset(chosen), Fraction(num, den), level, tuple(trace))


def _with_finder(g: Graph, level: int, finder: Callable[[Residual], CheapSet]) -> GreedyRun:
    """Drive rounds that take the finder's verified cheap set, delete its N[S]
    and bank the weight of N[S] that the verification computed."""
    def pick(r: Residual) -> TraceStep:
        cs = finder(r)
        return TraceStep(cs.kind, tuple(sorted(cs.vertices)), tuple(sorted(cs.closed)), cs.weight)

    return _drive(g, level, pick)


@_nogc
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
        adj, alive, deg = r.adj, r.alive, r.deg
        for x in fell:
            if alive[x]:
                heappush(heap, (deg[x], x))
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
            if alive[w]:
                fell.update(adj[w])
        fell.difference_update(adj[v])
        fell.discard(v)
        closed, num, den = _weighed_neighborhood(r, r.zeta, (v,), 0)
        return TraceStep("single-cheap", (v,), tuple(sorted(closed)), Fraction(num, den))

    return _drive(g, 0, pick)


@_nogc
def cheap_greedy(g: Graph) -> GreedyRun:
    """Independent set certified by lambda-strengthened accounting.

    Each round reads the residual's kept cheap set C (`Residual.cheap_state`,
    built once per run and repaired after each delete; no delete runs inside
    a pick, so C holds still while the round reads it) and builds two
    candidates: S1, the greedy maximal independent subset of C, accounted
    per bipartite component, and S2, the grouped minimum-lambda subset of
    S1's zeta classes, which always applies.  S1 wins when its component
    lambdas are all >= 0 and its smallest is <= S2's lambda.  The round
    banks the weight of N[S] at the winner's lambdas, one weight sum per
    distinct lambda into one integer pair, and only the winner is weighed.
    The lambdas are integer pairs (p, q), q > 0, compared by
    cross-multiplying.  The certificate is >= Z_1 of the input.

    A round makes one pass over C (`_greedy_mis`), walks N[S1] and its edges
    for the component lambdas and S1's zeta classes for S2, then weighs and
    deletes the winner's N[S].  When S1 wins, the delete pays for all of it:
    S1 is maximal independent in G[C], so N[S1] contains C.  When S2 wins,
    the members of C and of N[S1] outside N[S2] stay live and are walked
    again in later rounds, so no linear bound is claimed.  On paths every
    round takes S1 at the two ends: 0.05 / 0.10 / 0.19 / 0.39 / 0.65 s at
    n = 8000 / 16000 / 32000 / 64000 / 10^5 (process time, best of 3,
    CPython 3.11 on a 2-vCPU Xeon).
    """
    def pick(r: Residual) -> TraceStep:
        zeta = r.zeta                      # a Residual is its own zeta profile
        s1 = _greedy_mis(r, r.cheap_state().cheap)
        parts, (p1, q1), _ = _lambda_parts(r, s1)
        (p2, q2), _, s2 = _min_lambda_group(r, zeta, s1)
        num, den = 0, 1
        if 0 <= p1 and p1 * q2 <= p2 * q1:
            s, lam, kind = s1, Fraction(p1, q1), "component-lambda"
            closed = chain.from_iterable(parts.values())    # the components cover N[S1]
            for (p, q), vs in parts.items():
                num, den = _weigh(Counter(map(zeta.__getitem__, vs)), p, q, num, den)
        else:
            s, lam, kind = s2, Fraction(p2, q2), "grouped-lambda"
            closed = closed_neighborhood(r, s)
            num, den = _weigh(Counter(map(zeta.__getitem__, closed)), p2, q2)
        return TraceStep(kind, tuple(sorted(s)), tuple(sorted(closed)), Fraction(num, den), lam)

    return _drive(g, 0, pick)


@_nogc
def one_cheap_greedy(g: Graph) -> GreedyRun:
    """1-independent set of size >= ceil(Z_2(G)) via 1-cheap sets."""
    return _with_finder(g, 1, find_1_cheap)


@_nogc
def two_cheap_greedy(g: Graph) -> GreedyRun:
    """2-independent set of size >= ceil(Z_3(G)) via 2-cheap sets.

    Each round takes `find_2_cheap`'s one verified candidate; a candidate that
    fails verification raises CheapSetSearchError.
    """
    return _with_finder(g, 2, find_2_cheap)


@_nogc
def forest_k_greedy(g: Graph, k: int) -> GreedyRun:
    """k-independent set in a forest, size >= ceil(Z_{k+1}(G))."""
    if k < 0:
        raise GraphInputError(f"level must be >= 0, got {k}")
    if not is_forest(g):
        raise GraphInputError("forest_k_greedy requires a forest")
    return _with_finder(g, k, lambda r: find_k_cheap_forest(r, k))
