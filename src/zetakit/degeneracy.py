"""Degenerate degree (zeta) profiles, their weight sum, cheap vertices, and layer decompositions.

zeta(v) is the largest minimum degree over all induced subgraphs containing v
— equivalently v's coreness.  It is computed in near-linear time from a
smallest-last elimination: walking the order backwards, zeta of the next
vertex is the running maximum of residual degrees seen so far.

A `Residual` is the mutable graph that the greedy rounds and the layer
decomposition delete from.  It keeps the original vertex ids and carries its
own coreness: built with one `zeta_profile`, then repaired locally after each
deletion instead of being recomputed.
"""
from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator

from .graph import Graph, GraphInputError, SmallestLastResult, smallest_last_order


@dataclass(frozen=True)
class ZetaProfile:
    zeta: tuple[int, ...]          # indexed by vertex id
    degeneracy: int                # max zeta; 0 for the empty/edgeless graph
    order: SmallestLastResult


@dataclass(frozen=True)
class LayerDecomposition:
    layers: tuple[frozenset[int], ...]   # layers[0] is the first stripped set
    layer_of: tuple[int, ...]            # vertex -> index into layers (-1: not live)


def zeta_profile(g: Graph) -> ZetaProfile:
    """zeta for every vertex via the smallest-last prefix-max recurrence."""
    sl = smallest_last_order(g)
    zeta = [0] * g.n
    running = 0
    for v, d in zip(sl.order, sl.residual_degrees):
        running = max(running, d)
        zeta[v] = running
    return ZetaProfile(tuple(zeta), running if g.n else 0, sl)


class Residual:
    """A graph under deletion, keyed by the vertex ids of the Graph it was built from.

    adj[v] is the set of v's live neighbours (empty once v is deleted),
    zeta[v] the coreness of v in the live graph (0 once deleted), n and m
    count the live vertices and edges.  It answers the read-only calls the
    finders and bound helpers make of a Graph (vertices(), adj, n, m), and
    it serves as its own zeta profile wherever one is taken.
    """

    def __init__(self, g: Graph):
        self.adj: list[set[int]] = [set(a) for a in g.adj]
        self.alive = [True] * g.n
        self.zeta = list(zeta_profile(g).zeta)
        self.n = g.n
        self.m = g.m

    def vertices(self) -> Iterator[int]:
        """The live vertex ids in ascending order."""
        return compress(range(len(self.alive)), self.alive)

    def copy(self) -> Residual:
        twin = copy.copy(self)
        twin.adj = [set(a) for a in self.adj]
        twin.alive = self.alive[:]
        twin.zeta = self.zeta[:]
        return twin

    def delete(self, s: Iterable[int]) -> set[int]:
        """Delete the live vertices S; return the live vertices whose degree or zeta changed.

        Coreness is repaired locally.  A vertex's value drops to the h-index
        of its neighbours' values, capped at its current value, and each
        neighbour w with new < zeta[w] <= old is then rechecked.  The first
        vertices checked are the neighbours of S that lost a neighbour whose
        zeta was at least their own; no other vertex lost support at its own
        level.  The old coreness bounds the new one from above and a step
        never raises a value, so the process stops at the largest fixed point
        below the old coreness.  At any fixed point every set
        {v : zeta[v] >= k} has minimum degree >= k, so that fixed point is
        the new coreness.
        """
        adj, alive, zeta = self.adj, self.alive, self.zeta
        drop = set(s)
        for v in drop:
            if not (0 <= v < len(alive) and alive[v]):
                raise GraphInputError(f"vertex {v} is not live")
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
                    if zeta[u] <= zv:
                        pending.add(u)
                    lost += 2
                else:
                    lost += 1
            adj[v] = set()
            zeta[v] = 0
        self.n -= len(drop)
        self.m -= lost // 2
        while pending:
            v = pending.pop()
            old = zeta[v]
            # capped h-index: the largest h <= old with h neighbours of zeta >= h
            values = sorted([zeta[w] for w in adj[v]], reverse=True)
            new = min(old, len(values))
            while new and values[new - 1] < new:
                new -= 1
            if new < old:
                zeta[v] = new
                changed.add(v)
                pending.update([w for w in adj[v] if new < zeta[w] <= old])
        return changed


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

    Counting the values first makes the cost O(len(values)) integer steps plus
    one Fraction term per distinct value.
    """
    one = Fraction(1)
    return sum((count * min(one, one / (z + shift)) for z, count in Counter(values).items()),
               Fraction(0))


def is_zeta_regular(g: Graph, profile: ZetaProfile | None = None) -> bool:
    """True when every vertex has the same zeta (degeneracy == min degree)."""
    prof = profile or zeta_profile(g)
    if g.n == 0:
        return True
    return all(z == prof.zeta[0] for z in prof.zeta)


def cheap_vertices(g: Graph | Residual,
                   profile: ZetaProfile | Residual | None = None) -> frozenset[int]:
    """Vertices u with zeta(u) == deg(u) and zeta(u) minimal on N[u].

    Every minimum-degree vertex qualifies, so the set is nonempty whenever
    the graph is.
    """
    return _cheap_among(g, (profile or profile_of(g)).zeta, g.vertices())


def _cheap_among(g: Graph | Residual, zeta, candidates: Iterable[int]) -> frozenset[int]:
    adj = g.adj
    return frozenset(u for u in candidates
                     if zeta[u] == len(adj[u]) and all(zeta[u] <= zeta[v] for v in adj[u]))


def cheap_layers(g: Graph | Residual) -> Iterator[frozenset[int]]:
    """The cheap layers of g in stripping order, each stripped when it is asked for.

    The first layer is g's own cheap set.  The others are stripped on one
    Residual, one delete per layer: built from g when g is a Graph, or a copy
    of g made when the second layer is asked for, so g must not change while
    the stream is read.  After a delete only the vertices whose degree or zeta
    changed are rechecked: the others were not cheap, and a deletion only
    lowers their neighbours' zeta, which cannot make them cheap.  Each
    nonempty residual has a cheap vertex, so the layers cover every live vertex.
    """
    r = g if isinstance(g, Residual) else Residual(g)
    cheap = cheap_vertices(r)
    while cheap:
        yield cheap
        if r is g:
            r = g.copy()
        cheap = _cheap_among(r, r.zeta, r.delete(cheap))


def layer_decomposition(g: Graph | Residual) -> LayerDecomposition:
    """Iteratively strip the cheap vertices of what is left (see cheap_layers).

    layers[i] holds the vertex ids removed at step i+1; every live vertex is
    assigned a layer.
    """
    layers = tuple(cheap_layers(g))
    layer_of = [-1] * len(g.adj)
    for i, layer in enumerate(layers):
        for v in layer:
            layer_of[v] = i
    return LayerDecomposition(layers, tuple(layer_of))
