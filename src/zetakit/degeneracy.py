"""Degenerate degree (zeta) profiles, their weight sum, cheap vertices, and layer decompositions.

The weight sum `zeta_weight` returns an exact Fraction, but it sums in
integers and builds that Fraction once, at the end.

zeta(v) is the largest minimum degree over all induced subgraphs containing v
— equivalently v's coreness.  It is computed in linear time by one bucket
peel, level by level: at level k every vertex whose degree among the
unpeeled vertices is at most k is peeled with zeta = k.

A `Residual` is the mutable graph that the greedy rounds and the layer
decomposition delete from.  It keeps the original vertex ids and carries its
own coreness: built with one `zeta_profile`, then repaired locally on
per-vertex support counts after each deletion instead of being recomputed.
Once asked, it keeps its cheap set the same way, and a deletion can be rolled
back from an undo log.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from typing import Iterable, Iterator

from .graph import Graph, GraphInputError


@dataclass(frozen=True)
class ZetaProfile:
    zeta: tuple[int, ...]          # indexed by vertex id
    degeneracy: int                # max zeta; 0 for the empty/edgeless graph


@dataclass(frozen=True)
class LayerDecomposition:
    layers: tuple[frozenset[int], ...]   # layers[0] is the first stripped set
    layer_of: tuple[int, ...]            # vertex -> index into layers (-1: not live)


def zeta_profile(g: Graph) -> ZetaProfile:
    """zeta for every vertex by one level-by-level bucket peel, in O(n + m).

    The vertices start in bins[d] by degree.  For k = 0, 1, ..., the level-k
    stack is popped until empty: a popped vertex whose degree is still k is
    peeled with zeta = k, and each unpeeled neighbour of degree > k loses one
    and goes onto bins[d] for its new degree d, the current stack when d = k.
    No degree is lowered below k, so a peeled vertex keeps its level as its
    degree, and `deg[u] > k` alone marks u as unpeeled; an entry whose vertex
    has since fallen to a lower level is stale and is skipped.  An unpeeled
    vertex's degree above the level is exact, so the vertices left at the
    start of level k induce minimum degree >= k, giving zeta >= k; a vertex
    is peeled at level k with at most k unpeeled neighbours, so no member of
    the (k+1)-core is, giving zeta <= k.  This is the bucketed form of
    `zeta_oracle`'s threshold peeling.
    """
    adj = g.adj
    deg = [len(a) for a in adj]
    bins: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        bins[d].append(v)
    for k, stack in enumerate(bins):
        while stack:
            v = stack.pop()
            if deg[v] == k:
                for u in adj[v]:
                    if deg[u] > k:
                        deg[u] = d = deg[u] - 1
                        bins[d].append(u)
    return ZetaProfile(tuple(deg), max(deg, default=0))


class Residual:
    """A graph under deletion, keyed by the vertex ids of the Graph it was built from.

    adj[v] is the set of v's live neighbours (empty once v is deleted),
    zeta[v] the coreness of v in the live graph (0 once deleted), n and m
    count the live vertices and edges.  It answers the read-only calls the
    finders and bound helpers make of a Graph (vertices(), adj, n, m), and
    it serves as its own zeta profile wherever one is taken.  Built from a
    Graph with one `zeta_profile`, or none when that profile is handed in.

    support[v] counts v's live neighbours w with zeta[w] >= zeta[v] (the
    max-core degree of Sariyuce et al., VLDB 2013); it is built in one pass
    and kept by every delete, and a deleted vertex's entry is left as it was.
    Coreness makes support[v] >= zeta[v] for every live v: v lies in the
    zeta[v]-core with at least zeta[v] neighbours there.

    The live cheap set with its counts (`CheapState`) is built the first
    time `cheap_state()` is asked for, and every later delete repairs it; a
    Residual that is never asked pays nothing for it.  A delete given an
    undo log can be rolled back exactly with `undo`.
    """

    def __init__(self, g: Graph, profile: ZetaProfile | None = None):
        self.adj: list[set[int]] = [set(a) for a in g.adj]
        self.alive = [True] * g.n
        zeta = self.zeta = list((profile or zeta_profile(g)).zeta)
        self.support = [len([w for w in a if zeta[w] >= z]) for a, z in zip(g.adj, zeta)]
        self.n = g.n
        self.m = g.m
        self._cheap: CheapState | None = None

    def vertices(self) -> Iterator[int]:
        """The live vertex ids in ascending order."""
        return compress(range(len(self.alive)), self.alive)

    def cheap_state(self) -> CheapState:
        """The live cheap set with its counts, built on the first call."""
        if self._cheap is None:
            self._cheap = CheapState(self)
        return self._cheap

    def delete(self, s: Iterable[int], log: list | None = None) -> set[int]:
        """Delete the live vertices S; return the live vertices whose degree or zeta changed.

        Coreness is repaired locally, on the support counts.  A deleted v
        takes one support from each live neighbour u with zeta[u] <= zeta[v],
        and a vertex that falls from old to new takes one from each neighbour
        w with new < zeta[w] <= old; no other count moves.  A vertex goes
        pending only when its support falls below its zeta, and then it must
        fall: values never rise, so at most support[v] < zeta[v] neighbours
        can still hold a value >= zeta[v].  A pending vertex drops to the
        h-index of its neighbours' values capped at old - 1, which is the
        h-index capped at old, and its support is recounted from the same
        sorted values.  The old coreness bounds the new one from above and a
        step never raises a value, so the process stops at the largest fixed
        point below the old coreness.  At that fixed point support[v] >=
        zeta[v] for every live v, so every set {v : zeta[v] >= k} has
        minimum degree >= k, and the fixed point is the new coreness.

        With a log, the delete appends what `undo` needs: each deleted
        vertex's neighbour set, the old zeta and support of every vertex
        whose zeta or support it lowers, the old n and m, and the cheap state,
        which it sets aside unrepaired until the undo puts it back.  Without
        one, a built cheap state is repaired (see CheapState.repair).
        """
        adj, alive, zeta, support = self.adj, self.alive, self.zeta, self.support
        drop = set(s)
        for v in drop:
            if not (0 <= v < len(alive) and alive[v]):
                raise GraphInputError(f"vertex {v} is not live")
        state = self._cheap
        saved: dict[int, tuple[int, int]] | None = None
        if log is not None:
            gone: dict[int, set[int]] = {}
            saved = {}
            log.append((gone, saved, self.n, self.m, state))
            self._cheap = state = None
        elif state is not None:
            for v in drop & state.cheap:
                state.leave(v)
        for v in drop:
            alive[v] = False
        changed: set[int] = set()
        pending: set[int] = set()
        lost = 0                            # edges leaving S, plus twice those inside S
        for v in drop:
            zv = zeta[v]
            for u in adj[v]:
                if alive[u]:
                    adj[u].discard(v)
                    changed.add(u)
                    zu = zeta[u]
                    if zu <= zv:
                        if saved is not None:
                            saved.setdefault(u, (zu, support[u]))
                        support[u] -= 1
                        if support[u] < zu:
                            pending.add(u)
                    lost += 2
                else:
                    lost += 1
            if saved is not None:
                gone[v] = adj[v]
                saved[v] = (zv, support[v])
            adj[v] = set()
            zeta[v] = 0
        self.n -= len(drop)
        self.m -= lost // 2
        while pending:
            v = pending.pop()
            old = zeta[v]
            if saved is not None:
                saved.setdefault(v, (old, support[v]))
            new, support[v] = _fall(zeta, adj[v], old)
            zeta[v] = new
            changed.add(v)
            for w in adj[v]:
                zw = zeta[w]
                if new < zw <= old:
                    if saved is not None:
                        saved.setdefault(w, (zw, support[w]))
                    support[w] -= 1
                    if support[w] < zw:
                        pending.add(w)
        if state is not None:
            state.repair(changed)
        return changed

    def undo(self, log: list) -> None:
        """Roll back the deletes recorded in log, newest first, and empty it.

        Every delete made since the first one in log must be in log.
        """
        adj, alive, zeta, support = self.adj, self.alive, self.zeta, self.support
        while log:
            gone, saved, self.n, self.m, self._cheap = log.pop()
            for v, nbrs in gone.items():
                alive[v] = True
                adj[v] = nbrs
                for u in nbrs:
                    adj[u].add(v)
            for v, (z, c) in saved.items():
                zeta[v] = z
                support[v] = c


def _fall(zeta: list[int], nbrs: set[int], old: int) -> tuple[int, int]:
    """The value a vertex of zeta `old` with neighbours `nbrs` falls to, and its support there.

    The value is the h-index of the neighbours' zeta capped at old - 1: the
    largest h < old with h neighbours of zeta >= h.  The support is the
    number of neighbours of zeta >= that value.
    """
    values = sorted([zeta[w] for w in nbrs], reverse=True)
    new = min(old - 1, len(values))
    while new and values[new - 1] < new:
        new -= 1
    count = new
    while count < len(values) and values[count] >= new:
        count += 1
    return new, count


class CheapState:
    """The live cheap set C of a Residual and what the finders read of it.

    cheap is C, count[v] = |N(v) & C| for every live v, and isolated the
    number of live vertices without a neighbour, all of which are in C
    (deg 0 = zeta 0), and which stay in it until deleted.  Three min-heaps
    of vertex ids answer the finders' first questions without a scan: the
    members of C with a neighbour in C (`least_edge`), and the vertices with
    at least two or three neighbours in C (`least_hub`).  A vertex is pushed
    when it starts to qualify; an entry that no longer qualifies is popped
    when it reaches the top, so the top is the least qualifying id.
    """

    def __init__(self, r: Residual):
        self._r = r
        self.cheap = set(cheap_vertices(r))
        count = self.count = [0] * len(r.adj)
        for u in self.cheap:
            for v in r.adj[u]:
                count[v] += 1
        self.isolated = sum(not r.adj[u] for u in self.cheap)
        self._paired = sorted(u for u in self.cheap if count[u])
        self._hubs = {k: [v for v, c in enumerate(count) if c >= k] for k in (2, 3)}

    def least_edge(self) -> tuple[int, int] | None:
        """The edge uw inside C with the least u, then the least w; None when C is independent.

        u is the least member of C with a neighbour in C, so each of its
        neighbours in C has one too and is larger: uw is the first edge of
        G[C] by ascending u, then w.
        """
        heap, cheap, count = self._paired, self.cheap, self.count
        while heap and not (heap[0] in cheap and count[heap[0]]):
            heappop(heap)
        return (heap[0], min(self._r.adj[heap[0]] & cheap)) if heap else None

    def least_hub(self, k: int) -> int | None:
        """The least live vertex with at least k (2 or 3) neighbours in C, or None."""
        heap, count, alive = self._hubs[k], self.count, self._r.alive
        while heap and not (alive[heap[0]] and count[heap[0]] >= k):
            heappop(heap)
        return heap[0] if heap else None

    def leave(self, u: int) -> None:
        self.cheap.discard(u)
        count, nbrs = self.count, self._r.adj[u]
        if not nbrs:
            self.isolated -= 1
        for v in nbrs:
            count[v] -= 1

    def join(self, u: int) -> None:
        cheap, count, hubs = self.cheap, self.count, self._hubs
        cheap.add(u)
        if count[u]:
            heappush(self._paired, u)
        for v in self._r.adj[u]:
            count[v] += 1
            c = count[v]
            if c == 1:
                if v in cheap:
                    heappush(self._paired, v)
            elif c <= 3:
                heappush(hubs[c], v)

    def repair(self, changed: set[int]) -> None:
        """Recheck C after a delete that changed the degree or zeta of `changed`.

        Only the changed vertices are rechecked: whether u is cheap depends
        only on deg(u) and zeta(u) (see cheap_vertices), so a vertex whose
        degree and zeta did not change keeps its answer.
        """
        cheap, adj = self.cheap, self._r.adj
        now = _cheap_among(self._r, self._r.zeta, changed)
        # a changed vertex had a neighbour or a positive zeta, so it was not isolated
        self.isolated += sum(not adj[v] for v in changed)
        for u in (changed & cheap) - now:
            self.leave(u)
        for u in now - cheap:
            self.join(u)


def profile_of(g: Graph | Residual) -> ZetaProfile | Residual:
    """The zeta profile of g: a Residual carries its own, a Graph gets one computed."""
    return g if isinstance(g, Residual) else zeta_profile(g)


def zeta_oracle(g: Graph) -> tuple[int, ...]:
    """Independent zeta computation by threshold peeling (no elimination order).

    For d = 1, 2, ...: iteratively delete every vertex of degree < d; survivors
    have zeta >= d.  Deliberately a separate code path from zeta_profile so the
    two can cross-check each other.
    """
    alive = [True] * g.n
    deg = [len(a) for a in g.adj]
    zeta = [0] * g.n
    remaining = g.n
    d = 1
    while remaining > 0:
        queue = [v for v in range(g.n) if alive[v] and deg[v] < d]
        while queue:
            v = queue.pop()
            if not alive[v]:
                continue
            alive[v] = False
            remaining -= 1
            for u in g.adj[v]:
                if alive[u]:
                    deg[u] -= 1
                    if deg[u] < d:
                        queue.append(u)
        for v in range(g.n):
            if alive[v]:
                zeta[v] = d
        d += 1
    return tuple(zeta)


def zeta_weight(values: Iterable[int], shift: Fraction | int) -> Fraction:
    """Sum of min{1, 1/(z + shift)} over the multiset of integers `values`.

    With shift = p/q (q > 0) a term is q/(qz + p), or 1 when 0 < qz + p <= q.
    The distinct values are summed as one integer numerator over the product
    of their denominators, and the result is the one Fraction built from
    them, so the cost is O(len(values)) integer steps plus integer work per
    distinct value.  z + shift = 0 raises ZeroDivisionError.
    """
    p, q = shift.numerator, shift.denominator
    ones, num, den = 0, 0, 1
    for z, count in Counter(values).items():
        d = q * z + p
        if 0 < d <= q:
            ones += count
        elif d:
            num, den = num * d + count * q * den, den * d
        else:
            raise ZeroDivisionError(f"zeta {z} + shift {shift} is zero")
    return Fraction(num + ones * den, den)


def is_zeta_regular(g: Graph, profile: ZetaProfile | None = None) -> bool:
    """True when every vertex has the same zeta (degeneracy == min degree)."""
    prof = profile or zeta_profile(g)
    if g.n == 0:
        return True
    return all(z == prof.zeta[0] for z in prof.zeta)


def cheap_vertices(g: Graph | Residual,
                   profile: ZetaProfile | Residual | None = None) -> frozenset[int]:
    """Vertices u with zeta(u) == deg(u) and zeta(u) minimal on N[u].

    Only zeta(u) == deg(u) is tested; the minimality follows from it.  With
    zeta(u) = deg(u) = k, u lies in the k-core with all k of its neighbours,
    so each has zeta >= k.  Every minimum-degree vertex qualifies, so the set
    is nonempty whenever the graph is.
    """
    return _cheap_among(g, (profile or profile_of(g)).zeta, g.vertices())


def _cheap_among(g: Graph | Residual, zeta, candidates: Iterable[int]) -> frozenset[int]:
    adj = g.adj
    return frozenset(u for u in candidates if zeta[u] == len(adj[u]))


def cheap_layers(g: Graph | Residual,
                 profile: ZetaProfile | None = None) -> Iterator[frozenset[int]]:
    """The cheap layers of g in stripping order, each stripped when it is asked for.

    The first layer is g's own cheap set: the kept one when g is a Residual
    that has built its `cheap_state`.  The others are stripped one delete per
    layer, on a Residual built from g when g is a Graph, or on g itself when
    g is a Residual.  Then every delete goes into one undo log, and g is
    rolled back when the stream ends or is closed, so a reader that stops
    early closes it (`contextlib.closing`) before it reads g again.  After a
    delete only the vertices whose degree or zeta changed are rechecked: the
    others were not cheap, and cheapness depends only on deg and zeta (see
    cheap_vertices).  Each nonempty residual has a cheap vertex, so the
    layers cover every live vertex.  A profile handed in for a Graph saves
    the Residual its own `zeta_profile`.
    """
    if isinstance(g, Residual):
        r, log = g, []
        cheap = frozenset(g._cheap.cheap) if g._cheap else cheap_vertices(g)
    else:
        r, log = Residual(g, profile), None
        cheap = cheap_vertices(r)
    try:
        while cheap:
            yield cheap
            cheap = _cheap_among(r, r.zeta, r.delete(cheap, log))
    finally:
        if log:
            r.undo(log)


def layer_decomposition(g: Graph | Residual,
                        profile: ZetaProfile | None = None) -> LayerDecomposition:
    """Iteratively strip the cheap vertices of what is left (see cheap_layers).

    layers[i] holds the vertex ids removed at step i+1; every live vertex is
    assigned a layer.
    """
    layers = tuple(cheap_layers(g, profile))
    layer_of = [-1] * len(g.adj)
    for i, layer in enumerate(layers):
        for v in layer:
            layer_of[v] = i
    return LayerDecomposition(layers, tuple(layer_of))
