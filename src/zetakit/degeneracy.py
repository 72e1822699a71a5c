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

A `Residual` is the mutable graph that the greedy rounds delete from.  It
keeps the original vertex ids and carries its own coreness: zeta and the
per-vertex support counts start as copies of the Graph's peel, and after
each deletion they are repaired locally instead of being recomputed, by one
loop (`_settle`) that lowers a vertex short of support one level per pass
over its neighbours, or to 0 at once when it has no live neighbour left.  Once
asked, it keeps its cheap set the same way.  One class, `CheapState`,
keeps a cheap layer: the first on the Residual itself, and the second,
the cheap set of the live graph minus the first, on a second Residual
that also takes vertices back (`Residual.insert`), brought up to date when
it is next read; an insert raises the vertices its search visits and the
same loop lowers back those that cannot stay.  A layer answers the
finders' reads from lazy heaps that each read makes on its first call, so
a run keeps no heap that its finder never reads.  The cheap layers of a
Graph or a Residual come from one strip (`_strip`) that makes the same
repair, with the same loop, on per-vertex maps over the frozen adjacency:
copies of the kept peel's lists for a Graph, and for a Residual copies of
its lists with an overlay for the degrees, so a strip never changes what it
strips.
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

    adj[v] is the set of v's live neighbours (empty once v is deleted),
    zeta[v] the coreness of v in the live graph (0 once deleted), n counts
    the live vertices and m, counted on adj when asked, the live edges.  It
    answers the read-only calls the finders and bound helpers make of a
    Graph (vertices(), adj, n, m), and it serves as its own zeta profile
    wherever one is taken.  Built from a Graph on copies of the zeta and
    support counts of the Graph's kept peel (`_core`).

    support[v] counts v's live neighbours w with zeta[w] >= zeta[v] (the
    max-core degree of Sariyuce et al., VLDB 2013); it is exact after every
    delete and insert, and a deleted vertex's entry is left as it was.
    Coreness makes support[v] >= zeta[v] for every live v: v lies in the
    zeta[v]-core with at least zeta[v] neighbours there.

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
        self.adj: list[set[int]] = [set(a) for a in g.adj]
        self.alive = [True] * g.n
        prof, support = _core(g)
        self.zeta, self.support = list(prof.zeta), support[:]
        self.n = g.n
        self._cheap: CheapState | None = None

    @property
    def m(self) -> int:
        """The number of live edges, counted on the adjacency."""
        return sum(map(len, self.adj)) // 2

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

        Coreness is repaired locally, on the support counts.  A deleted v
        takes one support from each live neighbour u with zeta[u] <= zeta[v];
        no other count moves.  A deletion never raises a coreness, so the old
        values bound the new ones from above, and `_settle` lowers the
        vertices whose support fell below their zeta one level at a time
        until every support reaches its zeta, which is the new coreness.

        A built cheap state is repaired (see CheapState.repair) and notes
        the delete for its kept second layer (see CheapState.drop).
        """
        adj, alive, zeta, support = self.adj, self.alive, self.zeta, self.support
        drop = set(s)
        require_live(self, drop)
        state = self._cheap
        if state is not None:
            state.drop(drop)
        for v in drop:
            alive[v] = False
        changed: set[int] = set()
        pending: set[int] = set()
        for v in drop:
            zv = zeta[v]
            for u in adj[v]:
                if alive[u]:
                    adj[u].discard(v)
                    changed.add(u)
                    zu = zeta[u]
                    if zu <= zv:
                        support[u] -= 1
                        if support[u] < zu:
                            pending.add(u)
            adj[v] = set()
            zeta[v] = 0
        self.n -= len(drop)
        _settle(adj, zeta, support, pending, changed)
        if state is not None:
            state.repair(changed)
        return changed

    def _copy(self) -> Residual:
        """A new Residual of the same live graph, with the same coreness and no cheap state."""
        r = object.__new__(Residual)
        r.adj = [set(a) for a in self.adj]
        r.alive, r.zeta, r.support = self.alive[:], self.zeta[:], self.support[:]
        r.n, r._cheap = self.n, None
        return r

    def insert(self, v: int, nbrs: Iterable[int]) -> None:
        """Make the deleted vertex v live again, joined to the live vertices nbrs, each named once.

        The edges go in one at a time, each raising coreness by `_rise`, the
        ones to neighbours of higher zeta first, so that v's own rise meets
        few vertices of its level.  A built cheap state is repaired on v, its
        neighbours and the risen vertices: the neighbours in C leave it
        before their degree changes and rejoin in the repair if still cheap,
        so every count is taken on one adjacency; its kept second layer is
        given up (see CheapState.arrive).
        """
        adj, alive, zeta = self.adj, self.alive, self.zeta
        if not (0 <= v < len(alive)) or alive[v]:
            raise GraphInputError(f"vertex {v} is not deleted")
        nbrs = list(nbrs)
        if len(set(nbrs)) < len(nbrs) or not all(0 <= u < len(alive) and alive[u] for u in nbrs):
            raise GraphInputError(f"the neighbours of {v} must be distinct live vertices")
        nbrs.sort(key=zeta.__getitem__, reverse=True)
        state = self._cheap
        if state is not None:
            state.arrive(v, nbrs)
        alive[v] = True
        zeta[v] = self.support[v] = 0
        self.n += 1
        changed = {v, *nbrs}
        for u in nbrs:
            adj[v].add(u)
            adj[u].add(v)
            changed |= self._rise(v, u)
        if state is not None:
            state.repair(changed)

    def _rise(self, a: int, b: int) -> set[int]:
        """Repair coreness after the edge ab went in; return the vertices that rose.

        The traversal of Sariyuce et al. (VLDB 2013), on the support counts.
        With k = min(zeta[a], zeta[b]), only vertices of zeta k can rise, by
        one at most, and each that does has > k supports after the edge and
        is joined to an endpoint of zeta k through such vertices: a risen
        part with no endpoint was a (k+1)-core already.  So the search visits
        those vertices from the endpoints and raises all of them to k + 1.
        Every value is then an upper bound on the coreness, and only a
        visited vertex can be above it.  Support is recounted for a visited
        vertex and raised by one for each of its neighbours outside that
        already had zeta k + 1, so it is exact; the visited vertices with <= k
        supports go to `_settle`, which evicts by lowering them, and those
        they take support from, back to k.  The rest rose.
        """
        adj, zeta, support = self.adj, self.zeta, self.support
        k = min(zeta[a], zeta[b])
        for x in (a, b):
            if zeta[x] == k:
                support[x] += 1
        seen = {x for x in (a, b) if zeta[x] == k and support[x] > k}
        stack = list(seen)
        while stack:
            for y in adj[stack.pop()]:
                if zeta[y] == k and support[y] > k and y not in seen:
                    seen.add(y)
                    stack.append(y)
        for x in seen:
            zeta[x] = k + 1
        for x in seen:
            support[x] = sum(zeta[y] > k for y in adj[x])
            for y in adj[x]:
                if zeta[y] == k + 1 and y not in seen:
                    support[y] += 1
        fallen: set[int] = set()
        _settle(adj, zeta, support, {x for x in seen if support[x] <= k}, fallen)
        return seen - fallen


def require_live(g: Graph | Residual, s: Iterable[int]) -> None:
    """Refuse any member of s that is not a live vertex id of g."""
    n, alive = len(g.adj), g.alive if isinstance(g, Residual) else None
    for v in s:
        if not (0 <= v < n and (alive is None or alive[v])):
            raise GraphInputError(f"vertex {v} is not live")


def _settle(adj, zeta, support, pending: set[int], changed: set[int]) -> None:
    """Lower the pending vertices, and those they take support from, to the coreness.

    On entry every value is an upper bound on its vertex's coreness, support
    is exact, support[v] = #{w in adj[v] : zeta[w] >= zeta[v]}, for every
    vertex whose value can move, and pending holds those with support[v] <
    zeta[v].  One rule repairs it, the fixed-point iteration for coreness
    (Lu et al., Nat. Commun. 2016): a pending v of value old falls one level,
    to old - 1.  Each neighbour of zeta old loses the support v gave it and
    goes pending when that takes it below its zeta; v's support at old - 1
    is its count at old plus its neighbours of zeta old - 1, and v stays
    pending while that is still below old - 1.  So support stays exact.

    A vertex with fewer than z neighbours of value >= z lies in no z-core,
    since every member of the z-core has z neighbours there, each with
    coreness, hence value, >= z; so its coreness is below z, and the values
    stay upper bounds.  The loop stops because every step lowers a value.
    At the end support[v] >= zeta[v] for every v, so every set {v : zeta[v]
    >= j} has minimum degree >= j and lies in the j-core: each value is also
    a lower bound, and the values are the coreness.  In a strip a stripped
    neighbour has zeta 0 (see _strip): it never loses a support, and it
    counts toward a support only at level 0.  changed gains every vertex
    that falls.

    A pending vertex with no live neighbour drops to zeta 0 in one step,
    where the rule would spend one empty pass per level: it lies in no
    1-core, and no neighbour loses a support from it.  Only a Residual's
    adjacency empties as vertices go; a strip reads the frozen adjacency,
    where a vertex that can be pending has neighbours, so there the step
    never fires.
    """
    while pending:
        v = pending.pop()
        if not adj[v]:
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
    every live x of the residual the greedy deletes from, whose adjacency
    `adj` and alive flags `alive` are.  For the first layer C that residual
    is r.  The second layer D, the cheap set of the live graph minus C, is
    the cheap state of a Residual R2 of that graph, on the same vertex ids,
    and counts on the residual of its `outer` layer C (see second).  A
    vertex that joins or leaves L moves the counts of its neighbours in adj
    at once.  isolated is the number of vertices of L without a neighbour in
    r: for the first layer, every live vertex without a neighbour (deg 0 =
    zeta 0), each of which stays in C until deleted.

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
        home = r if outer is None else outer.r
        self.r, self.outer, self.adj, self.alive = r, outer, home.adj, home.alive
        self.cheap = set(cheap_vertices(r) if among is None else _cheap_among(r, r.zeta, among))
        count = self.count = [0] * len(self.adj)
        for u in self.cheap:
            for v in self.adj[u]:
                count[v] += 1
        self.isolated = sum(not r.adj[u] for u in self.cheap)
        self._reads: dict[tuple[CheapState | None, int], list[int]] = {}
        self._feeds: dict[int, list[tuple[set[int] | None, list[int]]]] = {}
        self._joins: list[tuple[list[int], int, list[int]]] = []
        self._second: CheapState | None = None
        self._stale: set[int] = set()

    def _least(self, members: CheapState | None, level: int) -> int | None:
        """The least member of the layer `members`, or live vertex when None, whose
        count on this layer is at least level; None when there is none.  A read of
        the live vertices takes level >= 1, as a vertex that comes back counts from 0."""
        count = self.count
        heap = self._reads.get((members, level))
        if heap is None:
            pool = compress(range(len(self.alive)), self.alive) if members is None else members.cheap
            heap = self._reads[members, level] = sorted(v for v in pool if count[v] >= level)
            if level:
                self._feeds.setdefault(level, []).append((members and members.cheap, heap))
            if members is not None:
                members._joins.append((count, level, heap))
        ok = self.alive.__getitem__ if members is None else members.cheap.__contains__
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
        D's count[x] = |N(x) & D| is taken on r's adjacency and holds for
        every live x of r at every moment: a delete in r takes its members
        out of D first (`drop`), and an update moves D's members on r's
        adjacency as it is then.  After an update, N(x) in R2 is N(x) in r
        less C for every vertex x of R2, so there count is also x's count in
        R2, which D's `least_edge` reads; on a member of C it is the number
        of neighbours in D, which `least_up` reads.

        The update: a noted vertex belongs in R2 when it is live in r and
        outside C.  The ones in R2 that no longer belong are deleted in one
        batch; then each one that now belongs, a live vertex that left C, is
        inserted, joined to its neighbours in R2 (those inserted before it
        included).
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
                    r2.insert(v, [x for x in r.adj[v] if r2.alive[x]])
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
        and the repair rejoins those still cheap.  v's count restarts at 0: on r's own
        adjacency, which lost v at its delete, it kept what it was then.  A kept second
        layer follows a residual that only deletes, so it is given up here, with the
        reads that C feeds for it, and built again on the next read; the greedy rounds
        never take a vertex back, and a second layer's own residual keeps no second
        layer."""
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
        if not self.r.adj[u]:
            self.isolated -= 1
        count = self.count
        for v in self.adj[u]:
            count[v] -= 1
        if self._second is not None:
            self._stale.add(u)

    def join(self, u: int) -> None:
        count, feeds = self.count, self._feeds
        self.cheap.add(u)
        for counts, level, heap in self._joins:
            if counts[u] >= level:
                heappush(heap, u)
        for v in self.adj[u]:
            count[v] = c = count[v] + 1
            if c in feeds:
                for members, heap in feeds[c]:
                    if members is None or v in members:
                        heappush(heap, v)
        if self._second is not None:
            self._stale.add(u)

    def repair(self, changed: set[int]) -> None:
        """Recheck L after a delete that changed the degree or zeta of `changed`.

        Only the changed vertices are rechecked: whether u is cheap depends
        only on deg(u) and zeta(u) (see cheap_vertices), so a vertex whose
        degree and zeta did not change keeps its answer.
        """
        cheap, adj = self.cheap, self.r.adj
        now = _cheap_among(self.r, self.r.zeta, changed)
        # a changed vertex had a neighbour or a positive zeta, so it was not isolated
        self.isolated += sum(not adj[v] for v in changed)
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
    adj = g.adj
    return frozenset(u for u in candidates if zeta[u] == len(adj[u]))


def cheap_layers(g: Graph | Residual,
                 profile: ZetaProfile | None = None) -> Iterator[frozenset[int]]:
    """The cheap layers of g in stripping order, each stripped when it is asked for.

    Each layer is the cheap set of what the layers before it leave.  After a
    layer goes, only the vertices whose degree or zeta changed are
    rechecked: the others were not cheap, and cheapness depends only on deg
    and zeta (see cheap_vertices).  Each nonempty residual has a cheap
    vertex, so the layers cover every live vertex.  One strip (`_strip`)
    does it on four per-vertex maps:

    - for a Graph, fresh lists, with copies of the zeta and support of its
      kept peel (see _core); a profile handed in is not read;
    - for a Residual, copies of its alive flags, zeta and support, and for
      the degrees, which it keeps in no list, an overlay (`_Degrees`) that
      reads len(adj[v]) and keeps the strip's writes; its first layer is the
      kept cheap set when it has built its `cheap_state`.

    Neither g nor a Graph's kept peel is written to, so a reader may stop at
    any layer.  A strip costs three list copies at memory speed plus what its
    layers touch: overlays on all four maps measured 20-25% slower on trees,
    as a dict subclass reads a missing key about ten times slower than a
    list.  The 2-cheap finder reads it on the second layer's Residual (see
    CheapState.second), so that its first layer is the kept D.
    """
    adj = g.adj
    if isinstance(g, Residual):
        first = frozenset(g._cheap.cheap) if g._cheap else cheap_vertices(g)
        return _strip(adj, _Degrees(adj), g.alive[:], g.zeta[:], g.support[:], first)
    prof, support = _core(g)
    deg = [len(a) for a in adj]
    first = _cheap_among(g, prof.zeta, range(g.n))
    return _strip(adj, deg, [True] * g.n, list(prof.zeta), support[:], first)


class _Degrees(dict):
    """A strip's live degrees over an adjacency it only reads: unwritten, v has len(adj[v])."""

    def __init__(self, adj):
        super().__init__()
        self.adj = adj

    def __missing__(self, v):
        return len(self.adj[v])


def _strip(adj, deg, alive, zeta, support, first: frozenset[int]) -> Iterator[frozenset[int]]:
    """The cheap layers from `first` down, on live degree, alive, zeta and support.

    zeta and support are exact for the live vertices on entry.  Each layer's
    deletion repairs them as Residual.delete does: the live neighbours of a
    deleted vertex lose one degree, and one support where their zeta is at
    most its zeta, and `_settle` lowers those left short of support one
    level at a time.  A deleted vertex's zeta is set to 0, so it counts
    toward a neighbour's support only at level 0 and never loses a support.
    adj is only read.
    """
    cheap = first
    while cheap:
        yield cheap
        for v in cheap:
            alive[v] = False
        changed: set[int] = set()
        pending: set[int] = set()
        for v in cheap:
            zv = zeta[v]
            for u in adj[v]:
                if alive[u]:
                    deg[u] -= 1
                    changed.add(u)
                    zu = zeta[u]
                    if zu <= zv:
                        support[u] -= 1
                        if support[u] < zu:
                            pending.add(u)
            zeta[v] = 0
        _settle(adj, zeta, support, pending, changed)
        cheap = frozenset(u for u in changed if zeta[u] == deg[u])


def layer_decomposition(g: Graph | Residual,
                        profile: ZetaProfile | None = None) -> LayerDecomposition:
    """Iteratively strip the cheap vertices of what is left (see cheap_layers).

    layers[i] holds the vertex ids removed at step i+1; every live vertex is
    assigned a layer.  A Residual is read, never written to.
    """
    layers = tuple(cheap_layers(g, profile))
    layer_of = [-1] * len(g.adj)
    for i, layer in enumerate(layers):
        for v in layer:
            layer_of[v] = i
    return LayerDecomposition(layers, tuple(layer_of))
