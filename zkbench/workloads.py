"""The benchmark workloads: seeded inputs and the commands each one runs.

The generators here are the benchmark's own and use no zetakit code, so the
inputs of a workload and seed stay byte-identical when the library (its
`oracle.generate` included) changes.  Every graph is handed to the program as
text: DIMACS where the graph may have isolated vertices, which an edge list
cannot carry, and an edge list otherwise.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Item:
    """One generated input graph of a workload."""
    name: str
    fmt: str                        # "dimacs" | "edges"
    text: str
    n: int
    edges: tuple[tuple[int, int], ...]
    forest: bool
    family_f: bool                  # built as a member of the Z_1-tight family


def gnm_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Sparse G(n, 2m/n(n-1)) conditioned on exactly m edges, by edge sampling."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def pref_attach_edges(n: int, a: int, rng: random.Random) -> list[tuple[int, int]]:
    """Preferential attachment: a clique on a+1 vertices, then each new vertex
    joins a distinct existing vertices drawn in proportion to their degree."""
    edges = [(u, v) for v in range(a + 1) for u in range(v)]
    ends = [x for e in edges for x in e]
    for v in range(a + 1, n):
        targets: set[int] = set()
        while len(targets) < a:
            targets.add(rng.choice(ends))
        for u in sorted(targets):
            edges.append((u, v))
            ends += (u, v)
    return edges


def forest_edges(n: int, rng: random.Random, attach: float = 0.85) -> list[tuple[int, int]]:
    """Random recursive forest: vertex v hangs below a uniform earlier vertex
    with probability `attach`, else it starts a new tree."""
    return [(rng.randrange(v), v) for v in range(1, n) if rng.random() < attach]


def layered_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    """The paper's example1: independent layers of sizes 1..2k, consecutive
    layers joined completely; n = k(2k+1)."""
    edges = []
    start = 0
    for size in range(1, 2 * k):
        nxt = start + size
        edges += [(a, b) for a in range(start, nxt) for b in range(nxt, nxt + size + 1)]
        start = nxt
    return k * (2 * k + 1), edges


def clique_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _coreness(n: int, edges) -> list[int]:
    """Core numbers by plain repeated minimum-degree peeling (small n only)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    core = [0] * n
    level = 0
    while alive:
        v = min(alive, key=lambda x: (len(adj[x] & alive), x))
        level = max(level, len(adj[v] & alive))
        core[v] = level
        alive.remove(v)
    return core


def family_f_edges(sizes: list[int], extra: int,
                   rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint cliques plus up to `extra` cross edges that keep every core
    number; such graphs have alpha_0 equal to Z_1."""
    edges: set[tuple[int, int]] = set()
    start = 0
    for s in sizes:
        edges.update((start + i, start + j) for i in range(s) for j in range(i + 1, s))
        start += s
    n = start
    target = _coreness(n, edges)
    for _ in range(extra):
        for _attempt in range(50):
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in edges and _coreness(n, edges | {(u, v)}) == target:
                edges.add((u, v))
                break
    return n, sorted(edges)


def dimacs_text(n: int, edges) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def edge_list_text(edges) -> str:
    return "".join(f"v{u} v{v}\n" for u, v in edges)


def is_forest(n: int, edges) -> bool:
    """Acyclic check by union-find."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def make_item(name: str, n: int, edges, *, dimacs: bool, family_f: bool = False) -> Item:
    edges = tuple(edges)
    text = dimacs_text(n, edges) if dimacs else edge_list_text(edges)
    return Item(name, "dimacs" if dimacs else "edges", text, n, edges,
                is_forest(n, edges), family_f)


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{tag}")


# ── workload inputs ──────────────────────────────────────────────────────────

# sizes keep a pass to a few seconds, so that a run holds several passes
SPARSE_N = 800
EXAMPLE1_K = 20         # n = 820
LARGE_N = 10000
MEAN_DEGREE = 8

# The graphs of greedy-sparse and bounds-large are one fixed draw per family,
# which the seed relabels and reorders.  Their cost follows structure such as
# the depth of the layer decomposition, and between G(n, m) draws of these
# sizes that depth moves the zeta command's cost by a quarter or more; a
# relabeling keeps the structure and still changes every tie-break by vertex id.


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """The same graph under a random vertex permutation, its edges shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
    rng.shuffle(out)
    return out


def greedy_sparse(seed: int) -> list[Item]:
    base = lambda tag: _rng("greedy-sparse", 0, tag)  # noqa: E731
    rng = _rng("greedy-sparse", seed, "relabel")
    n = SPARSE_N
    ex_n, ex_edges = layered_edges(EXAMPLE1_K)
    return [
        make_item("gnm", n, relabel(n, gnm_edges(n, n * MEAN_DEGREE // 2, base("gnm")), rng),
                  dimacs=True),
        make_item("pref-attach", n,
                  relabel(n, pref_attach_edges(n, MEAN_DEGREE // 2, base("pa")), rng),
                  dimacs=False),
        make_item("forest", n, relabel(n, forest_edges(n, base("forest")), rng), dimacs=True),
        make_item("example1", ex_n, relabel(ex_n, ex_edges, rng), dimacs=False),
    ]


def bounds_large(seed: int) -> list[Item]:
    base = lambda tag: _rng("bounds-large", 0, tag)  # noqa: E731
    rng = _rng("bounds-large", seed, "relabel")
    n = LARGE_N
    return [
        make_item("gnm", n, relabel(n, gnm_edges(n, n * MEAN_DEGREE // 2, base("gnm")), rng),
                  dimacs=True),
        make_item("pref-attach", n,
                  relabel(n, pref_attach_edges(n, MEAN_DEGREE // 2, base("pa")), rng),
                  dimacs=False),
    ]


# A fixed grid of (n, p) cells, several graphs each, so that a seed changes
# the graphs inside each cell but not the mix of sizes and densities.
GNP_NS = (10, 12, 14, 16, 18)
GNP_PS = (0.1, 0.2, 0.3, 0.5, 0.7)
GNP_PER_CELL = 12
FOREST_NS = (8, 12, 16, 20)
FOREST_PER_N = 10
CLIQUE_NS = tuple(range(2, 13))
FAMILY_F_COUNT = 120
# n caps of the two halves of the family-F graphs.  The oracles' cost grows
# steeply with n, so a few graphs near the caps of exact_alpha_k (40, and 20
# for k >= 1) would carry most of a pass's time and make it swing from seed
# to seed; many graphs below them keep a pass's cost steady.
FAMILY_F_CAPS = (16, 30)


def small_oracle(seed: int) -> list[Item]:
    r = lambda tag: _rng("small-oracle", seed, tag)  # noqa: E731
    items = []
    rng = r("gnp")
    for n in GNP_NS:
        for p in GNP_PS:
            for i in range(GNP_PER_CELL):
                items.append(make_item(f"gnp-{n}-{p}-{i}", n, gnp_edges(n, p, rng),
                                       dimacs=True))
    rng = r("forest")
    for n in FOREST_NS:
        for i in range(FOREST_PER_N):
            items.append(make_item(f"forest-{n}-{i}", n, forest_edges(n, rng), dimacs=True))
    for n in CLIQUE_NS:
        items.append(make_item(f"clique-{n}", n, clique_edges(n), dimacs=False))
    rng = r("family-f")
    for i in range(FAMILY_F_COUNT):
        # the first half stays within the n <= 20 guard of the k >= 1 oracles
        cap = FAMILY_F_CAPS[0] if i < FAMILY_F_COUNT // 2 else FAMILY_F_CAPS[1]
        sizes: list[int] = []
        while True:
            s = rng.randint(2, 6)
            if sum(sizes) + s > cap:
                break
            sizes.append(s)
        n, edges = family_f_edges(sizes, rng.randint(0, 4), rng)
        items.append(make_item(f"family-f-{i}", n, edges, dimacs=False, family_f=True))
    return items


# workload -> (input builder, stages every graph goes through, calls per
# timing of the parse, zeta and bounds commands).  On greedy-sparse these three
# take tens of milliseconds per graph against seconds for the greedies, and a
# single call per pass is timed too briefly to rise above the machine's jitter.
WORKLOADS = {
    "greedy-sparse": (greedy_sparse, ("parse", "zeta", "bounds", "greedy"), 9),
    "bounds-large": (bounds_large, ("parse", "zeta", "bounds"), 1),
    "small-oracle": (small_oracle, ("parse", "zeta", "bounds", "greedy", "oracle"), 1),
}
