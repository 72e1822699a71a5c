"""Constructive search for k-cheap sets.

A set S is k-cheap when its closed neighborhood contributes at most |S| to
the Z_{k+1} sum and G[S] has maximum degree <= k — i.e. trading N[S] for |S|
chosen vertices never decreases a certified lower bound.  The finders below
return one candidate, tagged by the pattern that produced it and verified
exactly; every finder raises CheapSetSearchError when the verification fails.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Iterable, Iterator

from .degeneracy import (Residual, ZetaProfile, _weigh, cheap_layers, profile_of,
                         require_live)
from .graph import (Graph, GraphInputError, closed_neighborhood,
                    connected_components)


class CheapSetSearchError(RuntimeError):
    """A finder's candidate failed exact verification — an internal invariant
    is broken (the theory guarantees that it passes)."""


@dataclass(frozen=True)
class CheapSet:
    """A finder's answer.  closed and weight are the N[S] and its weight that the
    verification computed (see VerifyResult), or None when the set was not
    verified; they take no part in equality."""
    vertices: frozenset[int]
    level: int
    kind: str
    weight: Fraction | None = field(default=None, compare=False, repr=False)
    closed: frozenset[int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None
    weight: Fraction          # sum over N[S] of min(1, 1/(zeta+1/(level+1)))
    size: int
    max_inner_degree: int
    closed: frozenset[int] = field(default=frozenset(), compare=False, repr=False)  # N[S]

    def __bool__(self) -> bool:
        return self.ok


def cheap_weight(g: Graph | Residual, zeta, s, level: int) -> Fraction:
    """Contribution of N[S] to Z_{level+1} (isolated vertices clamp at 1)."""
    return Fraction(*_weighed_neighborhood(g, zeta, s, level)[1:])


def _weighed_neighborhood(g: Graph | Residual, zeta, s,
                          level: int) -> tuple[frozenset[int], int, int]:
    """N[S] and its contribution to Z_{level+1} as a lowest-terms pair (num, den),
    den > 0, from one build of N[S]."""
    closed = closed_neighborhood(g, s)
    return (closed, *_weigh(Counter(map(zeta.__getitem__, closed)), 1, level + 1))


def verify_k_cheap(g: Graph | Residual, s, level: int,
                   profile: ZetaProfile | Residual | None = None) -> VerifyResult:
    """Exact-arithmetic check of both cheapness conditions, with diagnostics.

    Every member of s must be a live vertex of g.  The weight test compares
    integers, num <= |S| * den, and builds one Fraction, the weight.
    """
    if level < 0:
        raise GraphInputError(f"cheapness level must be >= 0, got {level}")
    sset = frozenset(s)
    require_live(g, sset)
    if not sset:
        return VerifyResult(False, "empty set", Fraction(0), 0, 0)
    zeta = (profile or profile_of(g)).zeta
    inner = max(len(g.adj[v] & sset) for v in sset)
    closed, num, den = _weighed_neighborhood(g, zeta, sset, level)
    weight = Fraction(num, den)
    if inner > level:
        return VerifyResult(False, f"max degree inside set is {inner} > {level}",
                            weight, len(sset), inner, closed)
    if num > len(sset) * den:
        return VerifyResult(False, f"neighborhood weight {weight} exceeds {len(sset)}",
                            weight, len(sset), inner, closed)
    return VerifyResult(True, None, weight, len(sset), inner, closed)


def _residual(g: Graph | Residual) -> Residual:
    """g itself when it is a Residual, else one Residual built from g."""
    return g if isinstance(g, Residual) else Residual(g)


def _require_no_isolated(r: Residual, isolated: int) -> None:
    """Refuse an empty r, or one with `isolated` > 0 live vertices of degree 0."""
    if r.n == 0:
        raise GraphInputError("graph is empty")
    if isolated:
        v = next(v for v in r.vertices() if not r.adj[v])
        raise GraphInputError(f"vertex {v} is isolated; strip isolated vertices first")


# ── level 1 ──────────────────────────────────────────────────────────────────

def find_1_cheap(g: Graph | Residual) -> CheapSet:
    """Return a two-vertex 1-cheap set of one of the three minimal patterns.

    C and D are the first two cheap layers of g; the first to apply:
    type-I:   the first edge uw inside C (ascending u, then w).
    type-III: the two least C-neighbours of the first vertex with two; they
              are nonadjacent, as type-I found no edge inside C.
    type-II:  the least w in D and u, its one C-neighbour.

    Once type-III fails, no vertex has two C-neighbours.  A w in D with none
    has deg_G(w) = deg_{G-C}(w) = zeta_{G-C}(w) <= zeta_G(w) <= deg_G(w), and
    zeta_G(x) >= zeta_{G-C}(x) >= zeta_{G-C}(w) = zeta_G(w) on N(w), so w is
    cheap in G, i.e. in C.  With N(w) & C = {u}, deg_{G-u}(w) = deg_{G-C}(w)
    = zeta_{G-C}(w) <= zeta_{G-u}(w) <= deg_{G-u}(w), and on N(w) - u,
    zeta_{G-u}(x) >= zeta_{G-C}(x) >= zeta_{G-u}(w): w is cheap in G - u.
    The pair is verified exactly; a failure, or a w without exactly one
    C-neighbour, raises CheapSetSearchError.

    A Graph is wrapped in one Residual.  Type-I and type-III are read from
    the Residual's kept cheap state, and type-II from its kept second layer
    (`CheapState.second`): no layer is stripped.
    """
    r = _residual(g)
    state = r.cheap_state()
    _require_no_isolated(r, state.isolated)
    cheap = state.cheap

    edge = state.least_edge()
    if edge is not None:
        return _checked(r, set(edge), 1, "type-I")

    hub = state.least_hub(2)
    if hub is not None:
        return _checked(r, set(sorted(r.adj[hub] & cheap)[:2]), 1, "type-III")

    w = state.second().least()
    partners = () if w is None else r.adj[w] & cheap
    if len(partners) != 1:
        raise CheapSetSearchError(f"no type-II pair at {w}; the search invariant is broken")
    return _checked(r, {w, *partners}, 1, "type-II")


def _inner_edges(g: Graph | Residual, x: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The edges uw of G[X] with u < w, by ascending u, then w."""
    return ((u, w) for u in sorted(x) for w in sorted(g.adj[u] & x) if w > u)


def _checked(r: Residual, s: set[int], level: int, kind: str) -> CheapSet:
    res = verify_k_cheap(r, s, level)
    if not res.ok:
        raise CheapSetSearchError(
            f"{kind} candidate {sorted(s)} failed verification: {res.reason}")
    return CheapSet(frozenset(s), level, kind, res.weight, res.closed)


# ── level 2 ──────────────────────────────────────────────────────────────────

def find_2_cheap(g: Graph | Residual) -> CheapSet:
    """Return the first candidate of the layered chain, verified exactly once.

    C and D are the first two cheap layers of g.  The first stage to apply
    wins: adjacent-pair (the first edge inside C), triple-common-neighbor
    (the three least C-neighbours of the least vertex with three),
    pair-plus-c2-neighbor (the least vertex of D with two C-neighbours, and
    those two), c1-with-two-c2 (the least vertex of C with two or more
    D-neighbours, and the two least), induced-path-4 (the first edge uw
    inside D, with the C-neighbours of u and w), then a sweep up the deeper
    layers and a bridge stage (below).  A failed verification raises
    CheapSetSearchError.  By three lemmas the first-layer answers verify and
    no down-chain breaks:
    - adjacent u, w in C have zeta = deg = z >= 1, and N[{u, w}] has at most
      2z members, each of zeta >= z: weight <= 2z/(z + 1/3) < 2;
    - with C independent, a_i = 1/(z_i + 1/3) for the C-neighbours u_i of p,
      and p charged to the u_1 of largest z_i: weight <= sum z_i a_i + a_1
      = 3 + a_1 - (a_1 + a_2 + a_3)/3 <= 3;
    - a vertex of layer j > 0 has a neighbour in layer j - 1, else it keeps
      its degree as that layer goes, so deg >= zeta_before >= zeta_after =
      deg and it was cheap one layer earlier (type-II of `find_1_cheap`).
    The first edge uw inside D always gives an induced path of four: by the
    third lemma and the two stages before it, each vertex of D has exactly
    one C-neighbour, u' and w', and no vertex of C has two D-neighbours, so
    u' != w', uw' and wu' are no edges, and neither is u'w' (C is
    independent): u'-u-w-w' is induced.

    Past the five stages, C and D are independent, each vertex of D has
    exactly one C-neighbour and no vertex of C has two D-neighbours.  The
    chain of v is v, then its least neighbour one layer down, and so on
    down to C.  The sweep takes the layers i = 2, 3, ... in turn and in each,
    vertex by ascending vertex: (a) a vertex with two or more neighbours in
    layer i - 1, a < b the least two: the union of their chains
    (two-layer-paths); (b) a vertex u with a neighbour two or more layers
    down, z the least of those in the lowest layer, p the chain of u's least
    down-neighbour: p itself if z is on p (layer-path), else the union of p
    and z's chain; (c) the least x in layer i - 1 with two neighbours in
    layer i: the lesser of those and x's chain (layer-path).  A union of two
    chains is refused, and the sweep goes on, when an edge joins them.
    After the sweep, the bridge stage yields, untested, the union of
    the chains of u and w for the first edge uw inside a layer above D
    (lowest layer, then ascending u, w).  Three facts make this complete:
    - No shared vertex.  The highest vertex x shared by two chains whose
      tops differ is below both tops, so it has two neighbours one layer up.
      Stage (c) at that layer, or c1-with-two-c2 when x is in C, answers for
      such an x before any union reaching below it is formed.  The tops
      always differ: a != b in (a), z off p is tested in (b), u != w in the
      bridge stage.
    - First failure.  If the first union refused for an edge is formed at
      sweep layer i, one of the layers 2..i-1 holds an edge.  Else every
      vertex of layers 1..i-1 has exactly one neighbour one layer down (D by
      pair-plus-c2-neighbor, a deeper one since (a) would have answered for
      a second) and none further down ((b) would have answered).  An edge
      between the two chains, both in layers 0..i-1, is then no jump; across
      consecutive layers, the lower end is the upper end's one down-neighbour
      and so on both chains, a shared vertex; inside one layer, it is an
      edge inside C, D or layers 2..i-1.
    - The bridge stage answers.  Let L be the lowest layer above D that holds
      an edge.  By the first failure no union formed at sweep layers 2..L is
      refused, so none is formed there, and each vertex of layers 1..L has
      one neighbour one layer down and none further.  The chains of the first
      edge uw of L are then joined by uw alone, as above: a path.  If no
      layer above D holds an edge, this holds in every layer, so every edge
      joins consecutive layers.  The top vertex of a component, if above C,
      then has only its down-neighbour: degree 1 = zeta, so it is cheap, in
      C after all.  Each component then lies in the independent C, i.e. is
      an isolated vertex, and g has none.  So the sweep or the bridge stage
      always answers; if neither does, the invariant is broken and
      CheapSetSearchError is raised.

    A Graph is wrapped in one Residual.  Its kept cheap state answers the
    first two stages and its kept second layer (`CheapState.second`), a
    CheapState too, the next three, from counts and from lazy heaps that
    each read makes on its first call.  A deeper stage reads the cheap
    layers of the second layer's own Residual from D down, in one stream per
    call that writes to neither residual (see cheap_layers).
    """
    r = _residual(g)
    state = r.cheap_state()
    _require_no_isolated(r, state.isolated)
    adj, cheap = r.adj, state.cheap
    edge = state.least_edge()
    if edge is not None:
        return _checked(r, set(edge), 2, "adjacent-pair")
    hub = state.least_hub(3)
    if hub is not None:
        return _checked(r, set(sorted(adj[hub] & cheap)[:3]), 2, "triple-common-neighbor")
    second = state.second()
    d = second.cheap
    p = second.least_pair()
    if p is not None:
        return _checked(r, {p, *sorted(adj[p] & cheap)[:2]}, 2, "pair-plus-c2-neighbor")
    u = second.least_up()
    if u is not None:
        return _checked(r, {u, *sorted(adj[u] & d)[:2]}, 2, "c1-with-two-c2")
    edge = second.least_edge()
    if edge is not None:
        return _checked(r, {*edge, *(min(adj[x] & cheap) for x in edge)}, 2, "induced-path-4")
    # the layers below D are stripped only as far as the candidates reach,
    # and a vertex not stripped yet has a layer index above every real one
    layers = [cheap, d]
    deep: dict[int, int] = {}
    top = len(adj)

    def lof(v: int) -> int:
        return 0 if v in cheap else 1 if v in d else deep.get(v, top)

    def down(v: int) -> int:
        below = lof(v) - 1
        return min(u for u in adj[v] if lof(u) == below)

    def chain(v: int) -> list[int]:
        """v followed by iterated down-neighbors, ending in the first layer."""
        path = [v]
        while lof(path[-1]) > 0:
            path.append(down(path[-1]))
        return path

    def pair_union(a: int, b: int) -> set[int] | None:
        """Union of the down-chains of a and b, or None when an edge joins them."""
        ca, sb = chain(a), set(chain(b))
        if any(adj[x] & sb for x in ca):
            return None
        return sb.union(ca)

    def candidates(stream: Iterator[frozenset[int]]) -> Iterator[tuple[set[int], str]]:
        def reach(i: int) -> bool:
            """Strip until layers[i] is known; False when there are fewer layers."""
            while len(layers) <= i:
                layer = next(stream, None)
                if layer is None:
                    return False
                deep.update(dict.fromkeys(layer, len(layers)))
                layers.append(layer)
            return True

        # upward sweep: each layer's down-multiplicities, jumping edges, and
        # chain merges, in that order — every union's side conditions were
        # scanned at a lower layer, so the first structural hit verifies
        i = 2
        while reach(i):
            li = sorted(layers[i])
            for u in li:
                dn = sorted(v for v in adj[u] if lof(v) == i - 1)
                if len(dn) >= 2:
                    s = pair_union(dn[0], dn[1])
                    if s is not None:
                        yield s, "two-layer-paths"
            for u in li:
                jumps = sorted((lof(v), v) for v in adj[u] if lof(v) <= i - 2)
                if not jumps:
                    continue
                p = chain(down(u))
                z = jumps[0][1]
                if z in p:
                    yield set(p), "layer-path"
                else:
                    s = pair_union(p[0], z)
                    if s is not None:
                        yield s, "two-layer-paths"
            # two chains merging one layer down extend to a single layered
            # path: the shared vertex plus one of its upper neighbors
            for x in sorted(layers[i - 1]):
                ups = sorted(v for v in adj[x] if lof(v) == i)
                if len(ups) >= 2:
                    yield {ups[0], *chain(x)}, "layer-path"
            i += 1
        # the first same-layer edge above the second layer bridges two chains
        for i in range(2, len(layers)):
            for u, w in _inner_edges(r, layers[i]):
                yield {*chain(u), *chain(w)}, "layer-path-pair-bridge"
        raise CheapSetSearchError("no 2-cheap candidate in any layer; the search invariant is broken")

    s, kind = next(candidates(islice(cheap_layers(second.r), 1, None)))     # past D, kept already
    return _checked(r, s, 2, kind)


# ── forests, arbitrary level ─────────────────────────────────────────────────

def find_k_cheap_forest(g: Graph | Residual, k: int) -> CheapSet:
    """k-cheap set in a forest by reverse leaf-insertion with verified repairs.

    Each component is processed independently (unions of per-component k-cheap
    sets stay k-cheap because closed neighborhoods don't interact).  Each
    repair's cover inequality is checked exactly; when no local repair meets
    it the component falls back to an exact tree DP for a maximum
    k-independent set, which always qualifies.  The union is verified exactly
    once.  A Graph is wrapped in one Residual, as in the other finders.
    """
    if k < 0:
        raise GraphInputError(f"level must be >= 0, got {k}")
    r = _residual(g)
    comps = connected_components(r)
    if r.m != r.n - len(comps):             # each tree has one edge fewer than vertices
        raise GraphInputError("graph is not a forest")
    _require_no_isolated(r, sum(len(comp) == 1 for comp in comps))
    total = set().union(*(_tree_k_cheap(r, comp, k) for comp in comps))
    return _checked(r, total, k, "forest-leaf")


def _tree_k_cheap(g: Graph | Residual, comp: list[int], k: int) -> set[int]:
    """A k-cheap set of the tree on comp, by reverse leaf insertion.

    Leaves are peeled, least id first, until the k+1 left form S.  Each leaf
    v goes back in reverse next to w, its one processed neighbour, and joins
    S when w is in S with < k S-neighbours.  At a saturated w, S becomes the
    first of (S - p) + v (p an S-neighbour of w, not a processed leaf), S and
    (S - w) + v with (k+1)|N[S] & processed| <= (k+2)|S|, or else the exact
    tree DP.  A tree vertex with an edge has zeta 1, so that inequality says
    N[S] weighs <= |S|.  Nothing else needs a check:
    - the peel pushes a vertex at deg <= 1 and degrees only fall: it pops leaves;
    - every pop is live: alive stays a tree, so a vertex is pushed again only
      at deg 0, i.e. as the last alive vertex, and the loop has stopped by
      then since k + 1 >= 1;
    - S lies within processed, so |N(w) & S| is w's degree in T[S];
    - S stays k-independent and nonempty: the k+1 survivors and the DP are;
      v joins with degree 1 next to a w of < k; a saturated w has exactly k,
      (S - p) + v keeps it at k and gives v 1 (p exists only for k >= 1),
      S is unchanged, (S - w) + v gives v 0; no other degree grows, and each
      variant holds w or v.
    """
    if len(comp) <= k + 1:
        return set(comp)

    # peel leaves (smallest id first) until k+1 vertices remain
    deg = {v: len(g.adj[v]) for v in comp}
    alive = set(comp)
    heap = [v for v in comp if deg[v] <= 1]
    heapify(heap)
    elim: list[tuple[int, int]] = []        # (leaf, its surviving neighbor)
    while len(alive) > k + 1:
        v = heappop(heap)
        parent = next(u for u in g.adj[v] if u in alive)
        elim.append((v, parent))
        alive.remove(v)
        deg[parent] -= 1
        if deg[parent] <= 1:
            heappush(heap, parent)

    processed = set(alive)
    s = set(alive)                          # the remaining subtree is k-cheap

    def partial_ok(cand: set[int]) -> bool:
        cov = set(cand)
        for x in cand:
            cov |= g.adj[x] & processed
        return (k + 1) * len(cov) <= (k + 2) * len(cand)

    for v, w in reversed(elim):
        # replay invariant: v's only processed neighbor is w
        processed.add(v)
        if w not in s:
            continue                        # N[S] unchanged: still k-cheap
        if len(g.adj[w] & s) < k:
            s.add(v)
            continue
        # w is saturated: the first repair variant that passes, else the DP
        variants = [(s - {p}) | {v} for p in sorted(g.adj[w] & s)
                    if len(g.adj[p] & processed) >= 2]     # non-leaf swaps
        variants += [s, (s - {w}) | {v}]                   # keep; swap the hub itself
        s = next(filter(partial_ok, variants), None) or _tree_max_k_independent(g, processed, k)
    return s


def _tree_max_k_independent(g: Graph | Residual, vertices: set[int], k: int) -> set[int]:
    """Exact maximum k-independent set on an induced subtree, by DP.

    Rooted at its least vertex, each vertex v keeps the best sizes of its
    subtree with v out of S (out), in S with up to k children in S (full),
    and in S with up to k - 1 (capped, so that a parent in S can still take
    v).  chosen[v] lists the children c of gain capped[c] - out[c] > 0 by
    (gain, id) descending, at most k of them; the k - 1 budget takes its
    first k - 1.  The set is rebuilt top-down from (vertex, in S, full
    budget) triples: a vertex out of S sends a child in with the full budget
    iff full > out there, and one in S sends in the children on its list,
    under the reduced budget, and the rest out.
    """
    root = min(vertices)
    children: dict[int, list[int]] = {}
    order = [root]
    for v in order:                         # breadth first: the parent is a key by now
        children[v] = [u for u in g.adj[v] if u in vertices and u not in children]
        order += children[v]

    out: dict[int, int] = {}
    full: dict[int, int] = {}
    capped: dict[int, int] = {}
    chosen: dict[int, list[int]] = {}
    for v in reversed(order):
        ch = children[v]
        ranked = sorted(((capped[c] - out[c], c) for c in ch), reverse=True)[:k]
        gains = [(gain, c) for gain, c in ranked if gain > 0]
        chosen[v] = [c for _, c in gains]
        out[v] = sum(max(out[c], full[c]) for c in ch)
        base = 1 + sum(out[c] for c in ch)
        full[v] = base + sum(gain for gain, _ in gains)
        capped[v] = base + sum(gain for gain, _ in gains[:k - 1])

    result: set[int] = set()
    todo = [(root, full[root] > out[root], True)]
    while todo:
        v, inside, budget = todo.pop()
        if not inside:
            todo += ((c, full[c] > out[c], True) for c in children[v])
            continue
        result.add(v)
        picks = chosen[v] if budget else chosen[v][:k - 1]
        todo += ((c, c in picks, False) for c in children[v])
    return result
