"""Degenerate degree (zeta) profiles, their weight sum, cheap vertices, and layer decompositions.

Every sum of min{1, 1/(z + shift)} in the library runs in one integer
kernel, `_weigh`: it adds a histogram's terms at the shift p/q to a running
integer pair (num, den), so a caller that weighs several parts at several
shifts builds one Fraction, for the value it reports, and no Fraction
operator runs on the way.  `zeta_weight` is that kernel on a histogram of
its values, with the Fraction built at once.  With the bound report, the
cheap-set verification and the greedy certificates on it, a small-graph
report builds about 10 Fractions where it built 31.

zeta(v) is the largest minimum degree over all induced subgraphs containing v
— equivalently v's coreness.  It is computed in linear time by one bucket
peel, level by level: at level k every vertex whose degree among the
unpeeled vertices is at most k is peeled with zeta = k.  The same peel
counts each vertex's support (see Residual), and a Graph is peeled once:
it keeps its zeta profile and supports (`_core`), and its strip, its bound
report and every greedy run on it read them.

A `Residual` is the graph that the greedy rounds delete from.  It reads
the frozen adjacency of its Graph as it is and keeps four per-vertex lists:
alive flags, live degrees, zeta and the support counts, the last two
starting as copies of the Graph's peel.  One routine (`_remove`) deletes a
set on the last three, where a deleted vertex has degree 0, and repairs
zeta and support locally instead of recomputing them, with one loop
(`_settle`) that lowers a vertex short of support one level per pass over
its neighbours, or to 0 at once when it has no live neighbour left.
`Residual.delete` runs it on the Residual's own lists; a strip (`_strip`)
runs it layer by layer on fresh copies of the three, of a Graph's peel or
of a Residual, so a strip never changes what it strips, and the cheap
layers of both come from it.  Once asked, a Residual keeps its cheap set
the same way.  One class, `CheapState`, keeps a cheap layer: the first
on the Residual itself, and the second, the cheap set of the live graph
minus the first, on a second Residual, four list copies of the first, that
also takes vertices back (`Residual.insert`), brought up to date when it is
next read; an insert raises the vertices that can rise and the same loop
lowers back those that cannot stay.  A layer answers the finders' reads
from lazy heaps that each read makes on its first call, so a run keeps no
heap that its finder never reads.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from math import gcd
from typing import Iterable, Iterator, Mapping

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
    """zeta for every vertex, from g's one kept peel (see _core)."""
    return _core(g)[0]


def _core(g: Graph) -> tuple[ZetaProfile, list[int]]:
    """g's zeta profile and the support counts of Residual, from one peel kept on g.

    The first call peels g (`_peel`) and keeps the pair in the frozen
    instance's __dict__ under "_core"; every later call returns it.  It is
    no dataclass field, so ==, hash and repr do not see it, and a pickle
    carries it.  Every reader of a Graph's zeta or support goes through
    here: zeta_profile and profile_of, the bound report and helpers, the
    strip of a Graph and Residual.__init__, which copies the two lists, so
    nothing written to a Residual or a strip reaches the kept values.  The
    support list is never handed out uncopied.
    """
    core = g.__dict__.get("_core")
    if core is None:
        zeta, support = _peel(g.adj)
        core = g.__dict__["_core"] = ZetaProfile(tuple(zeta), max(zeta, default=0)), support
    return core


def _peel(adj) -> tuple[list[int], list[int]]:
    """zeta and the support counts of Residual together, by one level-by-level
    bucket peel in O(n + m).

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

    When v is peeled at level k, its neighbours of degree >= k are the
    unpeeled ones, whose zeta will be >= k, and those peeled at level k
    before it, whose zeta is k; a neighbour peeled at a lower level kept
    that level, below k, as its degree.  So v's degree less its neighbours
    of degree < k at that moment is #{w in adj[v] : zeta[w] >= zeta[v]}.
    """
    deg = [len(a) for a in adj]
    support = deg[:]
    bins: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        bins[d].append(v)
    for k, stack in enumerate(bins):
        while stack:
            v = stack.pop()
            if deg[v] == k:
                for u in adj[v]:
                    d = deg[u]
                    if d > k:
                        deg[u] = d = d - 1
                        bins[d].append(u)
                    elif d < k:
                        support[v] -= 1
    return deg, support


class Residual:
    """A graph under deletion, keyed by the vertex ids of the Graph it was built from.

    adj is the Graph's frozen adjacency, shared and never written: adj[v]
    still names the deleted neighbours of v, so a reader that means live
    neighbours tests alive, and one that means the live degree reads
    deg[v], or degree(v) as on a Graph, the list's own lookup.  Four
    per-vertex lists change as vertices go and come: alive, deg, zeta[v]
    the coreness of v in the live graph, and support[v] (below); a deleted
    vertex has deg, zeta and support 0.  n counts the live vertices and m, summed from deg when
    asked, the live edges.  It answers the read-only calls the finders and
    bound helpers make of a Graph (vertices(), degree(v), adj, n, m), and it
    serves as its own zeta profile wherever one is taken.  Built from a
    Graph on copies of the zeta and support counts of the Graph's kept peel
    (`_core`); the Graph's frozen sets cost it nothing.

    support[v] counts v's live neighbours w with zeta[w] >= zeta[v] (the
    max-core degree of Sariyuce et al., VLDB 2013); it is exact after every
    delete and insert.  Coreness makes support[v] >= zeta[v] for every live
    v: v lies in the zeta[v]-core with at least zeta[v] neighbours there.

    The live cheap set with its counts, a `CheapState`, is built the first
    time `cheap_state()` is asked for, and every later delete repairs it; a
    Residual that is never asked pays nothing for it.  Its kept second layer
    is a `CheapState` too, of a copy of this Residual (see
    CheapState.second).  `insert` makes a deleted vertex live again; only
    the kept second layer uses it, and a second layer kept on this Residual
    is built again after it.  Reading its cheap layers leaves it as it is
    (see cheap_layers).
    """

    def __init__(self, g: Graph):
        self.adj, self.n, self._cheap = g.adj, g.n, None
        self.alive = [True] * g.n
        self.deg, self.zeta, self.support = _counts(g)
        self.degree = self.deg.__getitem__

    @property
    def m(self) -> int:
        """The number of live edges, summed from the live degrees."""
        return sum(self.deg) // 2

    def vertices(self) -> Iterator[int]:
        """The live vertex ids in ascending order."""
        return compress(range(len(self.alive)), self.alive)

    def cheap_state(self) -> CheapState:
        """The live cheap set with its counts, built on the first call."""
        if self._cheap is None:
            self._cheap = CheapState(self)
        return self._cheap

    def delete(self, s: Iterable[int]) -> set[int]:
        """Delete the live vertices S; return the live vertices whose degree or zeta changed.

        The repair is `_remove`'s.  A built cheap state notes the delete for
        its kept second layer and takes S out of its layers first (see
        CheapState.drop), and is repaired after (see CheapState.repair).
        """
        drop = set(s)
        require_live(self, drop)
        state = self._cheap
        if state is not None:
            state.drop(drop)
        alive = self.alive
        for v in drop:
            alive[v] = False
        self.n -= len(drop)
        changed = _remove(self.adj, self.deg, self.zeta, self.support, drop)
        if state is not None:
            state.repair(changed)
        return changed

    def _copy(self) -> Residual:
        """A new Residual of the same live graph, with the same coreness and no cheap state:
        four list copies over the same frozen adjacency."""
        r = object.__new__(Residual)
        r.adj, r.n, r._cheap = self.adj, self.n, None
        r.alive, r.deg, r.zeta, r.support = self.alive[:], self.deg[:], self.zeta[:], self.support[:]
        r.degree = r.deg.__getitem__
        return r

    def insert(self, v: int) -> None:
        """Make the deleted vertex v live again, joined to its live neighbours in the Graph.

        Coreness is repaired by `_rise`.  A built cheap state is repaired on
        v, its neighbours and the vertices raised on the way: the neighbours
        in C leave it before their degree changes and rejoin in the repair if
        still cheap, so every count is taken on one live graph; its kept
        second layer is given up (see CheapState.arrive).
        """
        alive, deg = self.alive, self.deg
        if not (0 <= v < len(alive)) or alive[v]:
            raise GraphInputError(f"vertex {v} is not deleted")
        nbrs = [u for u in self.adj[v] if alive[u]]
        state = self._cheap
        if state is not None:
            state.arrive(v, nbrs)
        alive[v] = True
        self.n += 1
        deg[v] = len(nbrs)
        for u in nbrs:
            deg[u] += 1
        risen = self._rise(v, nbrs)
        if state is not None:
            state.repair({v, *nbrs, *risen})

    def _rise(self, v: int, nbrs: list[int]) -> set[int]:
        """Repair coreness after v came back next to its live neighbours nbrs; return the
        vertices raised on the way.

        On entry every other value is the coreness and every support exact for
        the live graph without v.  Taking v back raises no coreness by more
        than one: a k-core that holds v is a (k-1)-core without it.  So v's
        coreness c is at most h, the most j such that j neighbours have zeta
        >= j - 1, since v has c neighbours of coreness >= c; v starts at h.
        A vertex x of zeta k that rises lies in the new (k+1)-core with k + 1
        neighbours there, each v or of zeta >= k, so it has > k supports once
        v counts, and k < h.  The risers of zeta k are also joined to a
        neighbour of v through risers of zeta k: those that are not, with the
        old (k+1)-core, would form a subgraph of minimum degree k + 1 without
        v, so they had zeta k + 1 already.  This is the traversal of Sariyuce
        et al. (VLDB 2013), from every neighbour of v at once: it visits the
        vertices of each level k < h with > k supports, joined within that
        level to a neighbour of v, and raises them all by one.  A deleted
        vertex has zeta and support 0 and is never visited.

        Every value is then an upper bound on the coreness, and only v and a
        visited vertex can be above it.  Support is recounted for them and
        raised by one for each outside neighbour whose zeta the raise
        reached, so it is exact; those with fewer supports than their zeta go
        to `_settle`, which lowers them, and those they take support from,
        to the coreness.
        """
        adj, zeta, support = self.adj, self.zeta, self.support
        # the test holds for a prefix of the values in falling order
        h = sum(z + 1 >= j for j, z in enumerate(sorted((zeta[u] for u in nbrs), reverse=True), 1))
        zeta[v] = h
        for u in nbrs:
            if zeta[u] <= h:
                support[u] += 1
        seen = {u for u in nbrs if zeta[u] < h and support[u] > zeta[u]}
        stack = list(seen)
        while stack:
            x = stack.pop()
            k = zeta[x]
            for y in adj[x]:
                if zeta[y] == k and support[y] > k and y not in seen:
                    seen.add(y)
                    stack.append(y)
        for x in seen:
            zeta[x] += 1
        for x in seen:
            z = zeta[x]
            support[x] = sum(zeta[y] >= z for y in adj[x])
            for y in adj[x]:
                if zeta[y] == z and y not in seen:
                    support[y] += 1
        support[v] = sum(zeta[u] >= h for u in nbrs)
        pending = {x for x in seen if support[x] < zeta[x]}
        if support[v] < h:
            pending.add(v)
        _settle(adj, self.deg, zeta, support, pending, set())
        return seen


def _counts(g: Graph) -> list[list[int]]:
    """deg, zeta and support of g with no vertex deleted, the last two copied from
    g's kept peel (see _core), so nothing written to them reaches it."""
    prof, support = _core(g)
    return [g.degrees(), list(prof.zeta), support[:]]


def require_live(g: Graph | Residual, s: Iterable[int]) -> None:
    """Refuse any member of s that is not a live vertex id of g."""
    n, alive = len(g.adj), g.alive if isinstance(g, Residual) else None
    for v in s:
        if not (0 <= v < n and (alive is None or alive[v])):
            raise GraphInputError(f"vertex {v} is not live")


def _remove(adj, deg, zeta, support, drop: set[int]) -> set[int]:
    """Delete the live vertices drop on the lists deg, zeta and support over the
    frozen adjacency adj; return the live vertices whose degree or zeta changed.

    A deleted vertex has deg, zeta and support 0, so it counts toward no
    support above level 0 and never loses one.  The members of drop get deg 0
    first, and then a neighbour u of a member v is live iff deg[u] > 0: a
    live u still counts v, whose turn it is, among its live neighbours.  So
    the routine needs no alive flags, and a strip copies none.

    Coreness is repaired locally, on the support counts.  A deleted v
    takes one degree from each live neighbour u, and one support where
    zeta[u] <= zeta[v]; no other count moves.  A deletion never raises a
    coreness, so the old values bound the new ones from above, and `_settle`
    lowers the vertices whose support fell below their zeta one level at a
    time until every support reaches its zeta, which is the new coreness.
    """
    for v in drop:
        deg[v] = 0
    changed: set[int] = set()
    pending: set[int] = set()
    for v in drop:
        zv = zeta[v]
        for u in adj[v]:
            if deg[u]:
                deg[u] -= 1
                changed.add(u)
                zu = zeta[u]
                if zu <= zv:
                    support[u] -= 1
                    if support[u] < zu:
                        pending.add(u)
        zeta[v] = support[v] = 0
    _settle(adj, deg, zeta, support, pending, changed)
    return changed


def _settle(adj, deg, zeta, support, pending: set[int], changed: set[int]) -> None:
    """Lower the pending vertices, and those they take support from, to the coreness.

    On entry every value is an upper bound on its vertex's coreness, support
    is exact, support[v] = #{live w in adj[v] : zeta[w] >= zeta[v]}, for
    every vertex whose value can move, and pending holds those with
    support[v] < zeta[v].  One rule repairs it, the fixed-point iteration for
    coreness (Lu et al., Nat. Commun. 2016): a pending v of value old falls
    one level, to old - 1.  Each neighbour of zeta old loses the support v
    gave it and goes pending when that takes it below its zeta; v's support
    at old - 1 is its count at old plus its neighbours of zeta old - 1, and v
    stays pending while that is still below old - 1.  So support stays exact.

    A vertex with fewer than z neighbours of value >= z lies in no z-core,
    since every member of the z-core has z neighbours there, each with
    coreness, hence value, >= z; so its coreness is below z, and the values
    stay upper bounds.  The loop stops because every step lowers a value.
    At the end support[v] >= zeta[v] for every v, so every set {v : zeta[v]
    >= j} has minimum degree >= j and lies in the j-core: each value is also
    a lower bound, and the values are the coreness.  changed gains every
    vertex that falls.

    A pending vertex with no live neighbour (deg 0) drops to zeta 0 in one
    step, where the rule would spend one pass per level: it lies in no
    1-core, and no neighbour loses a support from it.  So the rule never
    takes a vertex to level 0, the level of the deleted vertices, which
    adj still names: a live vertex with a live neighbour has a coreness, so
    a value, and so a support of at least 1.  Above level 0 a deleted
    neighbour, at zeta 0, neither gives nor loses a support.
    """
    while pending:
        v = pending.pop()
        if not deg[v]:
            zeta[v] = support[v] = 0
            changed.add(v)
            continue
        old, sv = zeta[v], support[v]
        new = old - 1
        for w in adj[v]:
            zw = zeta[w]
            if zw == old:
                support[w] -= 1
                if support[w] < zw:
                    pending.add(w)
            elif zw == new:
                sv += 1
        zeta[v] = new
        support[v] = sv
        if sv < new:
            pending.add(v)
        changed.add(v)


class CheapState:
    """One kept cheap layer L of the Residual r and what the finders read of it.

    cheap is L, and count keeps one invariant: count[x] = |adj[x] & L| for
    every live x of the residual the greedy deletes from, whose alive flags
    `alive` are; adj is the Graph's frozen adjacency, which every residual
    of a run shares, and as L is live, count[x] is the number of live
    neighbours of x in L.  For the first layer C that residual is r.  The
    second layer D, the cheap set of the live graph minus C, is the cheap
    state of a Residual R2 of that graph, on the same vertex ids, and counts
    on the residual of its `outer` layer C (see second).  A vertex that joins
    or leaves L moves the counts of its live neighbours at once; a deleted
    vertex's count is left as it was, as most of adj may be deleted late in
    a run.  isolated is the number of vertices of L without a live neighbour
    in r: for the first layer, every live vertex without a neighbour (deg 0
    = zeta 0), each of which stays in C until deleted.

    Every read asks for the least vertex of a member set, a layer or every
    live vertex, whose count on a layer is at least some level (`_least`).
    Its lazy min-heap of vertex ids is made on its first call, from the
    state as it is then, and kept by the counting layer.  Two events feed
    it: a vertex joins the member layer with its count already at the level
    (the member layer's `_joins`), or a member's count reaches the level
    (the counting layer's `_feeds`).  An entry that no longer qualifies is
    popped when it reaches the top, so the top is the least qualifying id.
    No heap exists that no reader has asked for.

    L is found by a scan of the live vertices, or only of `among` when the
    caller knows that no other live vertex is cheap.  Between reads of D, C
    only notes the vertices that were deleted, joined C or left it; the
    next `second()` brings D up to date from those in one batch.
    """

    def __init__(self, r: Residual, outer: CheapState | None = None,
                 among: Iterable[int] | None = None):
        self.r, self.outer, self.adj = r, outer, r.adj
        self.alive = (r if outer is None else outer.r).alive
        self.cheap = set(cheap_vertices(r) if among is None else _cheap_among(r, r.zeta, among))
        count = self.count = [0] * len(self.adj)
        for u in self.cheap:
            for v in self.adj[u]:
                count[v] += 1
        deg = r.deg
        self.isolated = sum(not deg[u] for u in self.cheap)
        self._reads: dict[tuple[CheapState | None, int], list[int]] = {}
        self._feeds: dict[int, list[tuple[set[int] | None, list[int]]]] = {}
        self._joins: list[tuple[list[int], int, list[int]]] = []
        self._second: CheapState | None = None
        self._stale: set[int] = set()

    def _least(self, members: CheapState | None, level: int) -> int | None:
        """The least member of the layer `members`, or live vertex when None, whose
        count on this layer is at least level; None when there is none.  A read of
        the live vertices takes level >= 1, as a vertex that comes back counts from 0."""
        count, alive = self.count, self.alive
        heap = self._reads.get((members, level))
        if heap is None:
            pool = compress(range(len(alive)), alive) if members is None else members.cheap
            heap = self._reads[members, level] = sorted(v for v in pool if count[v] >= level)
            if level:
                self._feeds.setdefault(level, []).append((members and members.cheap, heap))
            if members is not None:
                members._joins.append((count, level, heap))
        ok = alive.__getitem__ if members is None else members.cheap.__contains__
        while heap and not (ok(heap[0]) and count[heap[0]] >= level):
            heappop(heap)
        return heap[0] if heap else None

    def least_edge(self) -> tuple[int, int] | None:
        """The edge uw inside L with the least u, then the least w; None when L is independent.

        u is the least member of L with a neighbour in L, so each of its
        neighbours in L has one too and is larger: uw is the first edge of
        G[L] by ascending u, then w.
        """
        u = self._least(self, 1)
        return None if u is None else (u, min(self.adj[u] & self.cheap))

    def least_hub(self, k: int) -> int | None:
        """The least live vertex with at least k >= 1 neighbours in L, or None."""
        return self._least(None, k)

    def least(self) -> int | None:
        """The least member of L, or None when L is empty."""
        return self._least(self, 0)

    def least_pair(self) -> int | None:
        """The least member of the second layer D with at least two neighbours in C, or None."""
        return self.outer._least(self, 2)

    def least_up(self) -> int | None:
        """The least member of C with at least two neighbours in the second layer D, or None."""
        return self._least(self.outer, 2)

    def second(self) -> CheapState:
        """The kept second layer D, built on the first call and brought up to date on each.

        R2 is built from a copy of r by one delete of C, whose changed
        vertices are the only ones that can be cheap there (see
        cheap_layers).  D's r is R2, whose cheap layers below D the 2-cheap
        finder reads (see cheap_layers); `second()` is never asked of D.
        D's count[x] = |adj[x] & D| holds for every live x of r at every
        moment, as a delete in r takes its members out of D first (`drop`).
        D is live in R2, whose live vertices are those of r less C after an
        update, so on a vertex of R2 count is its count in R2, which D's
        `least_edge` reads, and on a member of C it is the number of
        neighbours in D, which `least_up` reads.

        The update: a noted vertex belongs in R2 when it is live in r and
        outside C.  The ones in R2 that no longer belong are deleted in one
        batch; then each one that now belongs, a live vertex that left C, is
        inserted, and comes back next to its live neighbours in R2 (those
        inserted before it included).
        """
        second = self._second
        if second is None:
            r2 = self.r._copy()
            second = self._second = r2._cheap = CheapState(r2, self, r2.delete(self.cheap))
        elif self._stale:
            r, r2, cheap = self.r, second.r, self.cheap
            wanted = {v for v in self._stale if r.alive[v] and v not in cheap}
            gone = {v for v in self._stale if r2.alive[v]} - wanted
            if gone:
                r2.delete(gone)
            for v in wanted:
                if not r2.alive[v]:
                    r2.insert(v)
            self._stale = set()
        return second

    def drop(self, s: set[int]) -> None:
        """Take the live vertices S, about to be deleted, out of C and out of a kept D."""
        for v in s & self.cheap:
            self.leave(v)
        second = self._second
        if second is not None:
            self._stale |= s
            for v in s & second.cheap:
                second.leave(v)

    def arrive(self, v: int, nbrs: list[int]) -> None:
        """Make ready for the deleted vertex v to come back next to nbrs: they leave C,
        and the repair rejoins those still cheap.  v's count restarts at 0: the counts
        of a deleted vertex are not kept.  A kept second layer follows a residual that only
        deletes, so it is given up here, with the reads that C feeds for it, and built
        again on the next read; the greedy rounds never take a vertex back, and a
        second layer's own residual keeps no second layer."""
        for u in self.cheap.intersection(nbrs):
            self.leave(u)
        self.count[v] = 0
        second = self._second
        if second is not None:
            self._reads = {key: heap for key, heap in self._reads.items() if key[0] is not second}
            self._feeds = {k: [f for f in fs if f[0] is not second.cheap]
                           for k, fs in self._feeds.items()}
            self._joins = [j for j in self._joins if j[0] is not second.count]
        self._second, self._stale = None, set()

    def leave(self, u: int) -> None:
        self.cheap.discard(u)
        if not self.r.deg[u]:
            self.isolated -= 1
        count, alive = self.count, self.alive
        for v in self.adj[u]:
            if alive[v]:
                count[v] -= 1
        if self._second is not None:
            self._stale.add(u)

    def join(self, u: int) -> None:
        count, feeds, alive = self.count, self._feeds, self.alive
        self.cheap.add(u)
        for counts, level, heap in self._joins:
            if counts[u] >= level:
                heappush(heap, u)
        for v in self.adj[u]:
            if not alive[v]:
                continue
            count[v] = c = count[v] + 1
            if c in feeds:
                for members, heap in feeds[c]:
                    if members is None or v in members:
                        heappush(heap, v)
        if self._second is not None:
            self._stale.add(u)

    def repair(self, changed: set[int]) -> None:
        """Recheck L after a delete or insert that changed the degree or zeta of `changed`.

        Only the changed vertices are rechecked: whether u is cheap depends
        only on deg(u) and zeta(u) (see cheap_vertices), so a vertex whose
        degree and zeta did not change keeps its answer.
        """
        cheap, deg = self.cheap, self.r.deg
        now = _cheap_among(self.r, self.r.zeta, changed)
        # a changed vertex had a neighbour or a positive zeta, so it was not isolated
        self.isolated += sum(not deg[v] for v in changed)
        for u in (changed & cheap) - now:
            self.leave(u)
        for u in now - cheap:
            self.join(u)


def profile_of(g: Graph | Residual) -> ZetaProfile | Residual:
    """The zeta profile of g: a Residual carries its own, a Graph keeps one (see _core)."""
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
    """Sum of min{1, 1/(z + shift)} over the multiset of integers `values`."""
    return Fraction(*_weigh(Counter(values), shift.numerator, shift.denominator))


def _weigh(counts: Mapping[int, int], p: int, q: int, num=0, den=1) -> tuple[int, int]:
    """num/den plus the sum over z of counts[z] * min{1, q/(qz + p)}, in lowest terms.

    Every weight sum of the library runs here, at the shift p/q (q > 0): a
    term is 1 when 0 < qz + p <= q, else q/(qz + p), which stays negative
    when qz + p is.  Zero counts are skipped.  The distinct values are summed
    as one integer numerator over the product of their denominators and one
    gcd reduces the pair, so a caller that adds several parts into one pair
    keeps its denominator near their lcm; den stays positive when every
    qz + p is.  qz + p = 0 raises ZeroDivisionError.
    """
    for z, count in counts.items():
        d = q * z + p
        if 0 < d <= q:
            num += count * den
        elif d and count:
            num, den = num * d + count * q * den, den * d
        elif count:
            raise ZeroDivisionError(f"zeta {z} + shift {Fraction(p, q)} is zero")
    d = gcd(num, den)
    return num // d, den // d


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
    # a Graph's candidates are all its vertices, so its degree list costs no more
    deg = g.deg if isinstance(g, Residual) else g.degrees()
    return frozenset(u for u in candidates if zeta[u] == deg[u])


def cheap_layers(g: Graph | Residual) -> Iterator[frozenset[int]]:
    """The cheap layers of g in stripping order, each stripped when it is asked for.

    Each layer is the cheap set of what the layers before it leave.  After a
    layer goes, only the vertices whose degree or zeta changed are
    rechecked: the others were not cheap, and cheapness depends only on deg
    and zeta (see cheap_vertices).  Each nonempty residual has a cheap
    vertex, so the layers cover every live vertex.  The strip (`_strip`)
    runs the Residual's delete routine on fresh copies of the lists deg,
    zeta and support, which it reads alive from (see _remove): for a Graph,
    those of nothing deleted with the zeta and support of its kept peel (see
    _core), and for a Residual its own, whose first layer is the kept cheap
    set when it has built its `cheap_state`.

    Neither g nor a Graph's kept peel is written to, so a reader may stop at
    any layer.  A strip costs three list copies at memory speed plus what
    its layers touch.  The 2-cheap finder reads it on the second layer's
    Residual (see CheapState.second), so that its first layer is the kept D.
    """
    r = g if isinstance(g, Residual) else None
    lists = [r.deg[:], r.zeta[:], r.support[:]] if r else _counts(g)
    deg, zeta, _ = lists
    first = r._cheap.cheap if r and r._cheap else (
        u for u in g.vertices() if zeta[u] == deg[u])
    return _strip(g.adj, *lists, frozenset(first))


def _strip(adj, deg, zeta, support, cheap: frozenset[int]) -> Iterator[frozenset[int]]:
    """The cheap layers from `cheap` down, each deleted by `_remove` on the lists deg,
    zeta and support, exact on entry, which it writes to; adj is only read."""
    while cheap:
        yield cheap
        cheap = frozenset(u for u in _remove(adj, deg, zeta, support, cheap)
                          if zeta[u] == deg[u])


def layer_decomposition(g: Graph | Residual) -> LayerDecomposition:
    """Iteratively strip the cheap vertices of what is left (see cheap_layers).

    layers[i] holds the vertex ids removed at step i+1; every live vertex is
    assigned a layer.  A Residual is read, never written to.
    """
    layers = tuple(cheap_layers(g))
    layer_of = [-1] * len(g.adj)
    for i, layer in enumerate(layers):
        for v in layer:
            layer_of[v] = i
    return LayerDecomposition(layers, tuple(layer_of))
