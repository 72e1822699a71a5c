"""Reference greedy loop that rebuilds the working graph every round.

Each round recomputes zeta from scratch, calls the finder on a compacted
Graph, and translates ids back through `old_of`.  The library runs
the same rounds on one Residual instead; tests require equal GreedyRuns.
The independent sets of `cheap_greedy` come from `greedy_mis`, a scan for the
minimum each pick, which is also the twin of the library's heap-ordered
`bounds._greedy_mis`.  The 1-cheap and 2-cheap rounds take their sets from
the scan twins in `scan_finders`.
"""
from __future__ import annotations

import random
from fractions import Fraction

import scan_finders
from zetakit.bounds import component_lambdas, select_dense_subset
from zetakit.cheap_sets import CheapSet, cheap_weight, find_k_cheap_forest
from zetakit.degeneracy import cheap_vertices, zeta_profile
from zetakit.graph import closed_neighborhood, remove_vertices
from zetakit.greedy import GreedyRun, TraceStep


def greedy_mis(g, pool):
    """Greedy maximal independent set inside G[pool], min-degree-first, smallest id on ties."""
    alive = set(pool)
    deg = {u: len(g.adj[u] & pool) for u in pool}
    out = set()
    while alive:
        u = min(alive, key=lambda v: (deg[v], v))
        out.add(u)
        dead = (g.adj[u] & alive) | {u}
        for w in dead:
            alive.discard(w)
        for w in dead:
            for x in g.adj[w]:
                if x in alive:
                    deg[x] -= 1
    return frozenset(out)


def _grouped_subset(g, zeta, cheap):
    """(lambda, S) of the grouped strong bound: per zeta-class of the cheap set, the
    dense part of its greedy independent subset; the least lambda wins, then the smallest class."""
    best = None
    for zval in sorted({zeta[u] for u in cheap}):
        s = select_dense_subset(g, greedy_mis(g, frozenset(u for u in cheap if zeta[u] == zval)))
        lam = 1 + Fraction(len(closed_neighborhood(g, s) - s) - sum(len(g.adj[u]) for u in s),
                           len(s))
        if best is None or lam < best[0]:
            best = (lam, s)
    return best


def _strip_isolated(work, old, chosen, trace):
    iso = [v for v in range(work.n) if not work.adj[v]]
    if not iso:
        return work, old, Fraction(0)
    orig = tuple(sorted(old[v] for v in iso))
    chosen.update(orig)
    trace.append(TraceStep("isolated-block", orig, orig, Fraction(len(iso))))
    sub = remove_vertices(work, iso)
    return sub.graph, tuple(old[o] for o in sub.old_of), Fraction(len(iso))


def _run_with_finder(g, level, finder, anomalies=None):
    work, old = g, tuple(range(g.n))
    chosen, cert, trace = set(), Fraction(0), []
    while work.n:
        work, old, got = _strip_isolated(work, old, chosen, trace)
        cert += got
        if work.n == 0:
            break
        prof = zeta_profile(work)
        cs = finder(work, prof)
        nbhd = closed_neighborhood(work, cs.vertices)
        contribution = cheap_weight(work, prof.zeta, cs.vertices, level)
        picked = tuple(sorted(old[v] for v in cs.vertices))
        removed = tuple(sorted(old[v] for v in nbhd))
        chosen.update(picked)
        cert += contribution
        trace.append(TraceStep(cs.kind, picked, removed, contribution))
        sub = remove_vertices(work, nbhd)
        work, old = sub.graph, tuple(old[o] for o in sub.old_of)
    return GreedyRun(frozenset(chosen), cert, level, tuple(trace),
                     tuple(anomalies) if anomalies else ())


def min_greedy(g, seed=None):
    rng = random.Random(seed) if seed is not None else None

    def pick(work, prof):
        degs = work.degrees()
        low = min(degs)
        pool = [v for v in range(work.n) if degs[v] == low]
        v = rng.choice(pool) if rng is not None else pool[0]
        return CheapSet(frozenset({v}), 0, "single-cheap")

    return _run_with_finder(g, 0, pick)


def cheap_greedy(g):
    work, old = g, tuple(range(g.n))
    chosen, cert, trace = set(), Fraction(0), []
    while work.n:
        work, old, got = _strip_isolated(work, old, chosen, trace)
        cert += got
        if work.n == 0:
            break
        prof = zeta_profile(work)
        zeta = prof.zeta
        cheap = cheap_vertices(work, prof)
        s1 = greedy_mis(work, cheap)
        comps = component_lambdas(work, prof, s1)
        lam1 = min((c.lam for c in comps), default=None)
        s1_ok = lam1 is not None and all(c.lam >= 0 for c in comps)
        lam2, s2 = _grouped_subset(work, zeta, cheap)
        if not s1_ok or lam2 < lam1:
            s, lam, kind = s2, lam2, "grouped-lambda"
            nbhd = closed_neighborhood(work, s)
            contribution = sum((1 / (zeta[v] + lam) for v in nbhd), Fraction(0))
        else:
            s, lam, kind = s1, lam1, "component-lambda"
            nbhd = closed_neighborhood(work, s)
            contribution = sum((sum((1 / (zeta[v] + c.lam) for v in c.vertices),
                                    Fraction(0)) for c in comps), Fraction(0))
        picked = tuple(sorted(old[v] for v in s))
        removed = tuple(sorted(old[v] for v in nbhd))
        chosen.update(picked)
        cert += contribution
        trace.append(TraceStep(kind, picked, removed, contribution, lam))
        sub = remove_vertices(work, nbhd)
        work, old = sub.graph, tuple(old[o] for o in sub.old_of)
    return GreedyRun(frozenset(chosen), cert, 0, tuple(trace))


def one_cheap_greedy(g):
    return _run_with_finder(g, 1, scan_finders.find_1_cheap)


def two_cheap_greedy(g):
    log = []
    return _run_with_finder(g, 2, lambda work, prof: scan_finders.find_2_cheap(work, prof, log),
                            anomalies=log)


def forest_k_greedy(g, k):
    return _run_with_finder(g, k, lambda work, prof: find_k_cheap_forest(work, k))
