"""Scan twins of the 1-cheap and 2-cheap finders.

The library finders read their first candidates from the cheap state that a
Residual keeps and strip deeper layers on the Residual itself.  These twins
select the same candidates the plain way: every cheap layer is the cheap set
of a rebuilt, recomputed graph, and each first-layer pattern is found by
scanning every vertex.  Tests require both to return equal CheapSets.

The twins verify a candidate with `is_k_cheap`, whose weight is the literal
sum of one Fraction term per vertex of N[S], not the library's verifier.
The 2-cheap twin verifies each candidate in turn, logs a rejected one in
`anomaly_log` and tries the next.  The library finder verifies only its
first candidate and raises CheapSetSearchError if it fails, so the two agree
exactly when every first candidate verifies.
"""
from __future__ import annotations

from fractions import Fraction

from zetakit.cheap_sets import CheapSet, CheapSetSearchError
from zetakit.degeneracy import cheap_vertices, zeta_profile
from zetakit.graph import GraphInputError, closed_neighborhood, remove_vertices


def literal_weight(zeta, vertices, shift):
    """The sum of min{1, 1/(zeta(v) + shift)} over `vertices`, one Fraction term per vertex."""
    return sum((min(Fraction(1), Fraction(1) / (zeta[v] + shift)) for v in vertices),
               Fraction(0))


def is_k_cheap(g, zeta, s, level):
    """G[S] has maximum degree <= level and N[S] weighs <= |S| in Z_{level+1}, S nonempty."""
    return (max(len(g.adj[v] & s) for v in s) <= level
            and literal_weight(zeta, closed_neighborhood(g, s), Fraction(1, level + 1)) <= len(s))


def rebuilt_layers(g):
    """The cheap layers of the Graph g: the cheap set of each rebuilt residual."""
    work, old = g, list(range(g.n))
    while work.n:
        cheap = cheap_vertices(work)
        yield frozenset(old[v] for v in cheap)
        sub = remove_vertices(work, cheap)
        work, old = sub.graph, [old[o] for o in sub.old_of]


def _inner_edges(g, x):
    return ((u, w) for u in sorted(x) for w in sorted(g.adj[u] & x) if w > u)


def _require_no_isolated(g):
    if g.n == 0:
        raise GraphInputError("graph is empty")
    for v in range(g.n):
        if not g.adj[v]:
            raise GraphInputError(f"vertex {v} is isolated; strip isolated vertices first")


def _anomaly(kind, vertices, reason):
    return {"kind": kind, "vertices": vertices, "reason": reason}


def _checked(g, prof, s, level, kind):
    if not is_k_cheap(g, prof.zeta, s, level):
        raise CheapSetSearchError(f"{kind} candidate {sorted(s)} failed verification")
    return CheapSet(frozenset(s), level, kind)


def find_1_cheap(g, profile=None):
    _require_no_isolated(g)
    prof = profile or zeta_profile(g)
    layers = rebuilt_layers(g)
    cheap = next(layers)
    edge = next(_inner_edges(g, cheap), None)
    if edge is not None:
        return _checked(g, prof, set(edge), 1, "type-I")
    for p in range(g.n):
        cn = sorted(g.adj[p] & cheap)
        if len(cn) >= 2:
            return _checked(g, prof, set(cn[:2]), 1, "type-III")
    w = min(next(layers, ()), default=None)
    partners = () if w is None else g.adj[w] & cheap
    if len(partners) != 1:
        raise CheapSetSearchError(f"no type-II pair at {w}")
    return _checked(g, prof, {w, *partners}, 1, "type-II")


def find_2_cheap(g, profile=None, anomaly_log=None):
    _require_no_isolated(g)
    prof = profile or zeta_profile(g)
    log = anomaly_log if anomaly_log is not None else []
    stream = rebuilt_layers(g)
    layers = []
    lof = [g.n] * g.n

    def reach(i):
        while len(layers) <= i:
            layer = next(stream, None)
            if layer is None:
                return False
            for v in layer:
                lof[v] = len(layers)
            layers.append(layer)
        return True

    def down(v):
        below = [u for u in g.adj[v] if lof[u] == lof[v] - 1]
        return min(below) if below else None

    def chain(v):
        path = [v]
        while lof[path[-1]] > 0:
            nxt = down(path[-1])
            if nxt is None:
                log.append(_anomaly("broken-chain", (path[-1],),
                                    f"no neighbor one layer below {path[-1]}"))
                return None
            path.append(nxt)
        return path

    def pair_union(a, b, joined=False):
        ca, cb = chain(a), chain(b)
        if ca is None or cb is None:
            return None
        sa, sb = set(ca), set(cb)
        if sa & sb:
            return None
        for x in ca:
            hits = g.adj[x] & sb
            if joined and x == a:
                hits = hits - {b}
            if hits:
                return None
        return sa | sb

    def candidates():
        reach(0)
        c1 = layers[0]
        for u, w in _inner_edges(g, c1):
            yield {u, w}, "adjacent-pair"
        for p in range(g.n):
            cn = sorted(g.adj[p] & c1)
            if len(cn) >= 3:
                yield set(cn[:3]), "triple-common-neighbor"
        if reach(1):
            c2 = layers[1]
            for p in sorted(c2):
                cn = sorted(g.adj[p] & c1)
                if len(cn) >= 2:
                    yield {cn[0], cn[1], p}, "pair-plus-c2-neighbor"
            for u in sorted(c1):
                up = sorted(g.adj[u] & c2)
                if len(up) >= 2:
                    yield {u, up[0], up[1]}, "c1-with-two-c2"
            for u, w in _inner_edges(g, c2):
                s = pair_union(u, w, joined=True)
                if s is not None:
                    yield s, "induced-path-4"
        i = 2
        while reach(i):
            li = sorted(layers[i])
            for u in li:
                dn = sorted(v for v in g.adj[u] if lof[v] == i - 1)
                if len(dn) >= 2:
                    s = pair_union(dn[0], dn[1])
                    if s is not None:
                        yield s, "two-layer-paths"
            for u in li:
                jumps = sorted((lof[v], v) for v in g.adj[u] if lof[v] <= i - 2)
                if not jumps:
                    continue
                d0 = down(u)
                p = chain(d0) if d0 is not None else None
                if p is None:
                    log.append(_anomaly("broken-chain", (u,),
                                        "jump vertex has no down-neighbor"))
                    continue
                z = jumps[0][1]
                if z in p:
                    yield set(p), "layer-path"
                else:
                    s = pair_union(d0, z)
                    if s is not None:
                        yield s, "two-layer-paths"
            for x in sorted(layers[i - 1]):
                ups = sorted(v for v in g.adj[x] if lof[v] == i)
                if len(ups) >= 2:
                    c = chain(x)
                    if c is not None:
                        yield {ups[0], *c}, "layer-path"
            i += 1
        for i in range(2, len(layers)):
            for u, w in _inner_edges(g, layers[i]):
                s = pair_union(u, w, joined=True)
                if s is not None:
                    yield s, "layer-path-pair-bridge"
        yield set(range(g.n)), "whole-path-union"

    for s, kind in candidates():
        if is_k_cheap(g, prof.zeta, s, 2):
            return CheapSet(frozenset(s), 2, kind)
        log.append(_anomaly(kind, tuple(sorted(s)), "verification failed"))
    raise CheapSetSearchError(f"no 2-cheap set found after {len(log)} failed candidates")
