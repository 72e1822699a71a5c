"""Exact reference computations, graph generators, and small-graph streams.

Everything here exists to check the fast algorithms from the outside:
branch-and-bound maximum k-independent sets (cross-validated by a literal
subset-enumeration twin), the equality-family recognizer, deterministic
generator families, and exhaustive enumeration of small graphs with an
optional isomorphism-deduplicated mode.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Iterator

from .bounds import z_bound
from .degeneracy import Residual, zeta_profile
from .graph import Graph, GraphInputError, build_graph, closed_neighborhood

_ALPHA0_LIMIT = 40
_ALPHAK_LIMIT = 20


def exact_alpha_k(g: Graph, k: int, limit: int | None = None) -> tuple[int, frozenset[int]]:
    """Maximum k-independent set size (with witness), exact branch and bound.

    k = 0 allows n up to 40 (greedy clique-cover pruning); k >= 1 up to 20.
    Pass limit to override the guard explicitly.  Refused with
    GraphInputError: k < 0, n above the guard, and a search that recurses
    deeper than Python allows (one level per branch, so a limit far past
    the guard can reach it, e.g. on a path of 3000 vertices).
    """
    if k < 0:
        raise GraphInputError(f"k must be >= 0, got {k}")
    if g.n == 0:
        return 0, frozenset()
    if max(g.degrees()) <= k:      # linear, exact at any size: keep above the guard
        return g.n, frozenset(range(g.n))
    cap = limit if limit is not None else (_ALPHA0_LIMIT if k == 0 else _ALPHAK_LIMIT)
    if g.n > cap:
        raise GraphInputError(f"graph has {g.n} > {cap} vertices; raise limit to force")
    try:
        return _alpha0(g) if k == 0 else _alpha_k_bnb(g, k)
    except RecursionError:
        raise GraphInputError(f"graph has {g.n} vertices: the exact search recursed "
                              "deeper than Python allows") from None


def _alpha0(g: Graph) -> tuple[int, frozenset[int]]:
    n = g.n
    adjm = [0] * n
    for v in range(n):
        for u in g.adj[v]:
            adjm[v] |= 1 << u
    full = (1 << n) - 1

    def clique_cover_bound(mask: int) -> int:
        cliques = 0
        left = mask
        while left:
            v = (left & -left).bit_length() - 1
            grow = adjm[v] & left
            left &= ~(1 << v)
            while grow:
                u = (grow & -grow).bit_length() - 1
                left &= ~(1 << u)
                grow &= adjm[u] & left
            cliques += 1
        return cliques

    best = 0
    best_set = 0

    def dfs(mask: int, size: int, picked: int) -> None:
        nonlocal best, best_set
        if not mask:
            if size > best:
                best, best_set = size, picked
            return
        # a nonempty mask needs a clique, so only size < best can prune
        if size < best and size + clique_cover_bound(mask) <= best:
            return
        # branch on the highest-degree remaining vertex
        v = max(_bits(mask), key=lambda x: (adjm[x] & mask).bit_count())
        dfs(mask & ~adjm[v] & ~(1 << v), size + 1, picked | (1 << v))
        dfs(mask & ~(1 << v), size, picked)

    dfs(full, 0, 0)
    return best, frozenset(_bits(best_set))


def _alpha_k_bnb(g: Graph, k: int) -> tuple[int, frozenset[int]]:
    n = g.n
    order = sorted(range(n), key=lambda v: (len(g.adj[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    adjm = [0] * n  # adjacency in position space
    for v in range(n):
        for u in g.adj[v]:
            adjm[pos[v]] |= 1 << pos[u]

    sdeg = [0] * n
    best = 0
    best_set = 0

    # greedy warm start to raise the pruning floor
    smask = 0
    for i in range(n):
        nb = adjm[i] & smask
        if nb.bit_count() <= k and all(sdeg[j] < k for j in _bits(nb)):
            for j in _bits(nb):
                sdeg[j] += 1
            sdeg[i] = nb.bit_count()
            smask |= 1 << i
    best, best_set = smask.bit_count(), smask
    sdeg = [0] * n

    def dfs(i: int, size: int, smask: int) -> None:
        nonlocal best, best_set
        if size + (n - i) <= best:
            return
        if i == n:
            if size > best:
                best, best_set = size, smask
            return
        nb = adjm[i] & smask
        c = nb.bit_count()
        if c <= k and all(sdeg[j] < k for j in _bits(nb)):
            for j in _bits(nb):
                sdeg[j] += 1
            sdeg[i] = c
            dfs(i + 1, size + 1, smask | (1 << i))
            for j in _bits(nb):
                sdeg[j] -= 1
            sdeg[i] = 0
        dfs(i + 1, size, smask)

    dfs(0, 0, 0)
    return best, frozenset(order[i] for i in _bits(best_set))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def alpha_k_subset_enumeration(g: Graph, k: int, limit: int = 12) -> int:
    """Literal reference oracle: try subsets by decreasing size, first hit wins.

    Exponential; exists to cross-validate exact_alpha_k on tiny graphs.
    """
    if k < 0:
        raise GraphInputError(f"k must be >= 0, got {k}")
    if g.n > limit:
        raise GraphInputError(f"enumeration oracle capped at n <= {limit}")
    verts = range(g.n)
    for size in range(g.n, 0, -1):
        for cand in combinations(verts, size):
            cset = set(cand)
            if all(len(g.adj[v] & cset) <= k for v in cand):
                return size
    return 0


# ── equality family ──────────────────────────────────────────────────────────

_PEEL_TRIES = 12


def _peel_clique_cover(g: Graph) -> tuple[frozenset[int], ...] | None:
    """Try to cover V(G) by peeling clique blocks that each weigh exactly 1.

    A block is the closed neighborhood of a minimum-degree vertex that forms
    a clique of uniform zeta equal to that degree, and whose removal leaves
    every remaining zeta untouched (see _keeps_zeta); only such a block is
    removed.  When the whole graph peels this way the blocks are a clique
    cover of size Z_1, so alpha0 == Z_1 is certified.  Ties between
    minimum-degree vertices are broken by trying each distinct block (up to
    a small cap); None means inconclusive, never a refutation.
    """
    parts: list[frozenset[int]] = []
    work = Residual(g)
    while work.n:
        dmin = min(map(work.degree, work.vertices()))
        seen: set[frozenset[int]] = set()
        for u in work.vertices():
            if work.degree(u) != dmin:
                continue
            block = closed_neighborhood(work, (u,))
            if block in seen:
                continue
            if len(seen) >= _PEEL_TRIES:
                return None
            seen.add(block)
            if (all(work.zeta[v] == dmin for v in block)
                    and all(block <= work.adj[a] | {a} for a in block)
                    and _keeps_zeta(work, block, dmin)):
                break
        else:
            return None
        work.delete(block)
        parts.append(block)
    return tuple(parts)


def _keeps_zeta(r: Residual, block: frozenset[int], dmin: int) -> bool:
    """Whether deleting block from r would leave every other zeta as it is.

    dmin is r's minimum degree and every member of block has zeta dmin.
    Every live vertex has zeta >= dmin, so a delete of block takes support
    (see Residual) only from the live outside vertices u of zeta dmin, one
    for each neighbour in block.  Support is exact, and a vertex falls iff its
    support drops below its zeta (see Residual.delete), so no zeta moves
    iff each such u keeps support >= dmin.
    """
    return all(r.support[u] - len(r.adj[u] & block) >= dmin
               for a in block for u in r.adj[a] - block if r.zeta[u] == dmin and r.alive[u])


def is_in_family_F(g: Graph, limit: int = 4096) -> tuple[bool, tuple[frozenset[int], ...] | None]:
    """Recognize graphs whose independence number equals the Z_1 bound.

    Two routes.  The structural route peels clique blocks off the graph
    (see _peel_clique_cover); success certifies equality and returns the
    blocks as a witness.  Disjoint cliques plus zeta-preserving cross edges
    always peel.  A failed peel is inconclusive — some equality graphs
    carry no such cover (smallest on six vertices) — so the recognizer
    falls back to comparing alpha0 with Z_1 outright, witness None; the
    exact oracle's own size guard applies on that route.
    """
    if g.n > limit:
        raise GraphInputError(f"family recognizer capped at n <= {limit}")
    parts = _peel_clique_cover(g)
    if parts is not None:
        return True, parts
    alpha0, _ = exact_alpha_k(g, 0)
    return alpha0 == z_bound(g, 1), None


# ── generators ───────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class GeneratorSpec:
    """Config for `generate`; unused fields may stay None."""
    family: str
    n: int | None = None
    k: int | None = None
    p: float | None = None
    seed: int | None = None
    sizes: tuple[int, ...] | None = None
    extra_edges: int = 0
    attach: float = 0.85


def generate(spec: GeneratorSpec) -> Graph:
    fam = spec.family
    if fam == "path":
        n = _need(spec.n, "path needs n")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "cycle":
        n = _need(spec.n, "cycle needs n")
        if n < 3:
            raise GraphInputError("cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if fam == "complete":
        n = _need(spec.n, "complete needs n")
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if fam == "star":
        n = _need(spec.n, "star needs n")
        return build_graph(n, [(0, i) for i in range(1, n)])
    if fam == "triangle-pendant":
        return build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    if fam == "example1":
        return layered_example_graph(_need(spec.k, "example1 needs k"))
    if fam == "disjoint-cliques":
        return _disjoint_cliques(_need(spec.sizes, "disjoint-cliques needs sizes"))
    if fam == "family-F":
        if spec.extra_edges < 0:
            raise GraphInputError(f"extra_edges must be >= 0, got {spec.extra_edges}")
        return _family_f_graph(_need(spec.sizes, "family-F needs sizes"),
                               spec.extra_edges, spec.seed or 0)
    if fam == "random-gnp":
        n = _need(spec.n, "random-gnp needs n")
        p = _probability(_need(spec.p, "random-gnp needs p"), "p")
        rng = random.Random(spec.seed or 0)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        return build_graph(n, edges)
    if fam == "random-forest":
        n = _need(spec.n, "random-forest needs n")
        attach = _probability(spec.attach, "attach")
        rng = random.Random(spec.seed or 0)
        edges = [(v, rng.randrange(v)) for v in range(1, n)
                 if rng.random() < attach]
        return build_graph(n, edges)
    raise GraphInputError(f"unknown generator family {fam!r}")


def _need(value, msg):
    if value is None:
        raise GraphInputError(msg)
    return value


def _probability(value: float, name: str) -> float:
    if not 0 <= value <= 1:         # NaN fails both comparisons
        raise GraphInputError(f"{name} must lie in [0, 1], got {value}")
    return value


def layered_example_graph(k: int) -> Graph:
    """Layered blow-up: independent layers of sizes 1..2k, consecutive layers
    joined completely.  n = k(2k+1); the showcase input for the greedy family."""
    if k < 1:
        raise GraphInputError("example1 needs k >= 1")
    layers = example_layers(k)
    edges = [(a, b)
             for prev, cur in zip(layers, layers[1:])
             for a in prev for b in cur]
    return build_graph(k * (2 * k + 1), edges)


def example_layers(k: int) -> tuple[tuple[int, ...], ...]:
    """Vertex ids per layer of layered_example_graph(k)."""
    out = []
    nxt = 0
    for size in range(1, 2 * k + 1):
        out.append(tuple(range(nxt, nxt + size)))
        nxt += size
    return tuple(out)


def _disjoint_cliques(sizes: tuple[int, ...]) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise GraphInputError("clique sizes must be positive")
    edges = []
    nxt = 0
    for s in sizes:
        block = range(nxt, nxt + s)
        edges.extend((a, b) for a in block for b in block if a < b)
        nxt += s
    return build_graph(nxt, edges)


def _family_f_graph(sizes: tuple[int, ...], extra_edges: int, seed: int) -> Graph:
    """Disjoint cliques plus random cross edges that leave zeta untouched.

    Each extra edge gets up to 100 rejection-sampling attempts; when the
    budget runs out the graph built so far is returned (zero extra edges is
    a perfectly good member).
    """
    base = _disjoint_cliques(sizes)
    target = zeta_profile(base).zeta
    rng = random.Random(seed)
    n = base.n
    edges = set(base.edges())
    current = base
    for _ in range(extra_edges):
        placed = False
        for _attempt in range(100):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            a, b = min(u, v), max(u, v)
            if (a, b) in edges:
                continue
            trial = build_graph(n, list(edges) + [(a, b)])
            if zeta_profile(trial).zeta == target:
                edges.add((a, b))
                current = trial
                placed = True
                break
        if not placed:
            break  # budget exhausted; the cliques-so-far are already a member
    return current


# ── exhaustive small-graph streams ───────────────────────────────────────────

_ENUM_LIMIT = 8
_canon_cache: dict[int, tuple[int, ...]] = {}


def enumerate_small_graphs(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All graphs on n labeled vertices; dedup=True yields one per iso class.

    The deduplicated stream is backed by canonical adjacency masks (minimum
    edge-mask over degree-refinement-respecting permutations), generated by
    extending the (n-1)-vertex catalog, and is cached per n.
    """
    if n < 1 or n > _ENUM_LIMIT:
        raise GraphInputError(f"enumeration supports 1 <= n <= {_ENUM_LIMIT}")
    if dedup:
        for mask in _canonical_masks(n):
            yield _graph_from_mask(n, mask)
        return
    for mask in range(1 << comb(n, 2)):
        yield _graph_from_mask(n, mask)


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    c = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = c
            c += 1
    return idx


def _graph_from_mask(n: int, mask: int) -> Graph:
    edges = [(i, j) for (i, j), b in _pair_index(n).items() if mask >> b & 1]
    return build_graph(n, edges)


def canonical_mask(g: Graph) -> int:
    """Canonical adjacency bitmask: equal iff the graphs are isomorphic."""
    n = g.n
    if n > _ENUM_LIMIT:
        raise GraphInputError(f"canonical form capped at n <= {_ENUM_LIMIT}")
    inv: tuple = tuple(len(a) for a in g.adj)
    for _ in range(2):
        inv = tuple((inv[v], tuple(sorted(inv[u] for u in g.adj[v])))
                    for v in range(n))
    classes: dict = {}
    for v in range(n):
        classes.setdefault(inv[v], []).append(v)
    blocks = [classes[key] for key in sorted(classes, key=repr)]
    pidx = _pair_index(n)
    edges = g.edges()
    best = None
    for perm in _block_permutations(blocks):
        mask = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            mask |= 1 << pidx[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    return best if best is not None else 0


def _block_permutations(blocks: list[list[int]]) -> Iterator[dict[int, int]]:
    """All vertex->position maps permuting only within invariant classes."""
    starts = []
    s = 0
    for b in blocks:
        starts.append(s)
        s += len(b)
    per_block = [list(permutations(b)) for b in blocks]

    def rec(i: int, acc: dict[int, int]) -> Iterator[dict[int, int]]:
        if i == len(blocks):
            yield acc
            return
        for ordering in per_block[i]:
            nxt = dict(acc)
            for off, v in enumerate(ordering):
                nxt[v] = starts[i] + off
            yield from rec(i + 1, nxt)

    yield from rec(0, {})


def _canonical_masks(n: int) -> tuple[int, ...]:
    if n in _canon_cache:
        return _canon_cache[n]
    if n == 1:
        _canon_cache[1] = (0,)
        return _canon_cache[1]
    seen: set[int] = set()
    for pmask in _canonical_masks(n - 1):
        parent = _graph_from_mask(n - 1, pmask)
        parent_edges = parent.edges()
        for nb in range(1 << (n - 1)):
            edges = parent_edges + [(v, n - 1) for v in _bits(nb)]
            seen.add(canonical_mask(build_graph(n, edges)))
    _canon_cache[n] = tuple(sorted(seen))
    return _canon_cache[n]
