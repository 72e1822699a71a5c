"""Immutable undirected simple graphs on integer vertex ids 0..n-1.

Every input reaches the library in this one representation: a tuple of
frozen neighbor sets.  Vertices are always contiguous ints; labels (if any)
live at the CLI layer, never here.  Code that deletes vertices round after
round works on a degeneracy.Residual, which keeps these ids.

A Graph's fields never change, and it keeps one value besides them: the
result of its one peel, its zeta profile with the support counts, set on the
first read by `degeneracy._core` in the instance's __dict__.  It is no field,
so equality, hashing and repr do not see it.

Each vertex id is one int object, shared by every neighbor set that holds
it.  The kernels index per-vertex lists (degree, zeta, support) with ids
read out of adjacency sets, and a fresh int object per adjacency entry
scatters those reads over the heap.  On zkbench's bounds-large workload
(a 10^4-vertex, 4 * 10^4-edge DIMACS graph, which held 78,177 int objects
for 9,996 ids when the parser kept one per entry) sharing them took the
median `zeta_s` from 0.205 to 0.160 s over ten runs each (CPython 3.11,
2-vCPU Xeon).

The builders (`build_graph` and the two parsers in cli) pause Python's cyclic
garbage collector while they fill their neighbour sets (`_nogc`).  They
allocate two containers per vertex, a set and then its frozenset, and every
700 or so container allocations start a collection that traverses every
young set, though none can be freed: nothing a builder makes forms a
reference cycle.  On bounds-large's two 10^4-vertex graphs one parse ran 28
collections, which took 10-15 ms of it.  Pausing the collector, with the
tighter loops of `_frozen_graph` and the parsers, took `build_graph` of a
10^5-vertex, 4 * 10^5-edge graph from 0.86-0.97 s to 0.56 s and
`parse_dimacs` of it from 1.22-1.34 s to 0.86-0.88 s (best of 3, twice,
CPython 3.11, 2-vCPU Xeon).
"""
from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable


class GraphInputError(ValueError):
    """Raised when edges/vertex ids don't form a valid simple graph."""


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[frozenset[int], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


@dataclass(frozen=True)
class SmallestLastResult:
    """Vertex elimination order plus each vertex's degree at removal time.

    order[i] is the i-th vertex removed; residual_degrees[i] its degree in
    the graph induced by order[i:].
    """
    order: tuple[int, ...]
    residual_degrees: tuple[int, ...]


@dataclass(frozen=True)
class InducedSubgraph:
    """remove_vertices result: the surviving graph plus the id translation."""
    graph: Graph
    old_of: tuple[int, ...]        # new id -> old id (sorted ascending)
    new_of: dict[int, int]         # old id -> new id


def _nogc(fn):
    """Run fn with the cyclic garbage collector paused; used by the graph
    builders and the five greedies.

    The pause pays because a builder allocates a container per vertex, and a
    greedy run keeps O(n) live ones, and the collections that these
    allocations start traverse the containers without freeing any.  It is
    safe because no collection during the call could free anything.  The
    builders create no reference cycles: reference counting frees each
    line's garbage at once.  A greedy run's only cycles are its kept cheap
    layers, live until it returns; a cheap_greedy, 1-cheap or 2-cheap run
    leaves them behind as one garbage island, which the first collection
    after the call frees (see the greedy module docstring).  The pause is
    process-wide, and on every exit, a raise included, the collector is left
    in the state it was found in (enabled again only if it was enabled on
    entry).  Mercurial's `util.nogc` does the same around its large
    containers.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_nogc
def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Rejects negative n, self-loops and out-of-range endpoints (reporting the
    offending edge); duplicate edges are merged silently.  Each endpoint is
    stored as the one int object of its id (see the module docstring), so the
    caller's ints are never kept.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be >= 0, got {n}")
    ids = list(range(n))
    nbrs: list[set[int]] = [set() for _ in ids]
    for u, v in edges:
        if u == v:
            raise GraphInputError(f"self-loop ({u},{v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
        nbrs[u].add(ids[v])
        nbrs[v].add(ids[u])
    return _frozen_graph(nbrs)


def _frozen_graph(nbrs: list[set[int]]) -> Graph:
    """The Graph on ids 0..len(nbrs)-1 whose neighbor sets are `nbrs`, frozen.

    The caller has validated them: symmetric, no self-loops, each id one object.
    """
    adj = tuple(map(frozenset, nbrs))
    return Graph(n=len(adj), adj=adj, m=sum(map(len, adj)) // 2)


def closed_neighborhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """N[S]: the vertices of S together with every neighbor of S."""
    out = set(s)
    for v in tuple(out):
        out.update(g.adj[v])
    return frozenset(out)


def remove_vertices(g: Graph, s: Iterable[int]) -> InducedSubgraph:
    """Induced subgraph on V \\ S, with ids compacted to 0..n'-1."""
    drop = set(s)
    keep = [v for v in range(g.n) if v not in drop]
    new_of = {old: new for new, old in enumerate(keep)}
    adj = tuple(frozenset(new_of[u] for u in g.adj[old] if u not in drop)
                for old in keep)
    m = sum(len(a) for a in adj) // 2
    return InducedSubgraph(Graph(len(keep), adj, m), tuple(keep), new_of)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of connected components, each sorted, in smallest-id order.

    Also takes a degeneracy.Residual: only its live vertices are visited.
    """
    seen = [False] * len(g.adj)
    comps: list[list[int]] = []
    for start in g.vertices():
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comp.sort()
        comps.append(comp)
    return comps


def is_forest(g: Graph) -> bool:
    # acyclic <=> every component has |edges| = |vertices| - 1; a forest on
    # n >= 1 vertices thus has at most n - 1 edges, and m >= n needs no pass
    if g.m >= g.n >= 1:
        return False
    return g.m == g.n - len(connected_components(g))


# ── smallest-last elimination ────────────────────────────────────────────────

def smallest_last_order(g: Graph) -> SmallestLastResult:
    """Repeatedly remove a minimum-degree vertex (smallest id on ties).

    Bucketed by degree; each bucket is a heap of vertex ids so the tie-break
    is exact.  A vertex is re-pushed on every degree change and stale entries
    are skipped lazily, so the work is O((V+E) log V).
    """
    n = g.n
    if n == 0:
        return SmallestLastResult((), ())
    deg = [len(a) for a in g.adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    for b in buckets:
        heapify(b)
    removed = [False] * n
    order: list[int] = []
    resid: list[int] = []
    d = 0
    for _ in range(n):
        if d > 0:
            d -= 1   # removing a min-degree vertex can lower the minimum by at most 1
        while True:
            b = buckets[d] if d < len(buckets) else []
            while b and (removed[b[0]] or deg[b[0]] != d):
                heappop(b)   # stale entry
            if b:
                break
            d += 1
        v = heappop(buckets[d])
        removed[v] = True
        order.append(v)
        resid.append(d)
        for u in g.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heappush(buckets[deg[u]], u)
    return SmallestLastResult(tuple(order), tuple(resid))
