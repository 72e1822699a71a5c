"""Reference greedy loop that rebuilds the working graph every round.

Each round recomputes zeta from scratch, calls the finder on a compacted
Graph, and translates ids back through `old_of`.  The library runs
the same rounds on one Residual instead; tests require equal GreedyRuns.
The independent sets of `cheap_greedy` come from `greedy_mis`, a scan for the
minimum each pick, which is also the twin of the library's heap-ordered
`bounds._greedy_mis`.  Its lambdas come from `lambda_components` and
`dense_subset`, which recount every component and every prefix from
scratch.  The 1-cheap and 2-cheap rounds take their sets from the scan twins
in `scan_finders`.  Every weight is `scan_finders.literal_weight`, one
Fraction term per vertex, so no round shares the library's arithmetic.
"""
from __future__ import annotations

import random
from fractions import Fraction

import scan_finders
from scan_finders import literal_weight
from zetakit.cheap_sets import CheapSet, find_k_cheap_forest
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


def lambda_components(g, s):
    """(vertices, lambda) per component of the bipartite graph between the independent S
    and N(S), flooded along S-N(S) edges: lambda = 1 - e/|S side| + |N side|/|S side|."""
    comps, seen = [], set()
    for root in s:
        if root in seen:
            continue
        members, frontier = {root}, [root]
        while frontier:
            v = frontier.pop()
            for u in g.adj[v]:
                if (v in s or u in s) and u not in members:
                    members.add(u)
                    frontier.append(u)
        seen |= members
        side = members & s
        e = sum(len(g.adj[v]) for v in side)
        comps.append((frozenset(members), 1 - Fraction(e, len(side))
                      + Fraction(len(members - side), len(side))))
    return comps


def prefix_lambdas(g, s):
    """(lambda, S') for every suffix S' of the independent S in ascending (degree, id)
    order, largest first, lambda = 1 + (|N(S')| - e(S'))/|S'| recounted for each."""
    order = sorted(s, key=lambda v: (len(g.adj[v]), v))
    out = []
    for j in range(len(order)):
        sub = frozenset(order[j:])
        out.append((1 + Fraction(len(closed_neighborhood(g, sub) - sub)
                                 - sum(len(g.adj[u]) for u in sub), len(sub)), sub))
    return out


def dense_subset(g, s):
    """The (lambda, S') of prefix_lambdas with the least lambda, then the larger S'."""
    best = None
    for lam, sub in prefix_lambdas(g, s):
        if best is None or lam < best[0]:
            best = (lam, sub)
    return best


def _grouped_subset(g, zeta, cheap):
    """(lambda, S) of the grouped strong bound: per zeta-class of the cheap set, the
    dense part of its greedy independent subset; the least lambda wins, then the smallest class."""
    best = None
    for zval in sorted({zeta[u] for u in cheap}):
        lam, s = dense_subset(g, greedy_mis(g, frozenset(u for u in cheap if zeta[u] == zval)))
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
        contribution = literal_weight(prof.zeta, nbhd, Fraction(1, level + 1))
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
        comps = lambda_components(work, s1)
        lam1 = min((lam for _, lam in comps), default=None)
        s1_ok = lam1 is not None and all(lam >= 0 for _, lam in comps)
        lam2, s2 = _grouped_subset(work, zeta, cheap)
        if not s1_ok or lam2 < lam1:
            s, lam, kind = s2, lam2, "grouped-lambda"
            nbhd = closed_neighborhood(work, s)
            contribution = literal_weight(zeta, nbhd, lam)
        else:
            s, lam, kind = s1, lam1, "component-lambda"
            nbhd = closed_neighborhood(work, s)
            contribution = sum((literal_weight(zeta, vs, c_lam) for vs, c_lam in comps),
                               Fraction(0))
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
