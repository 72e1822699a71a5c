"""Lower bounds on k-independence numbers from the zeta profile.

Every value below is an exact fractions.Fraction; nothing here ever rounds.
The sums and comparisons under those values run on integers: each weight sum
builds one Fraction, each lambda is one Fraction of integer counts, and the
candidate prefixes of a dense subset are compared by cross-multiplication.
The headline quantity is

    Z_k(G) = sum_v min{1, 1/(zeta(v) + 1/k)}        (k >= 1)

which lower-bounds the (k-1)-independence number; Z_1, Z_2 and Z_3 are
proven bounds on alpha_0, alpha_1 and alpha_2.  The "strong" variants replace
the shift on N[S] by a lambda derived from an independent set S of cheap
vertices; lambda may be negative, which is where they beat Z_1.  Every such
sum is `degeneracy.zeta_weight`, one call per shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .degeneracy import (Residual, ZetaProfile, cheap_vertices, profile_of, zeta_profile,
                         zeta_weight)
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
    return zeta_weight((profile or zeta_profile(g)).zeta, Fraction(1, k))


def caro_wei(g: Graph) -> Fraction:
    """Classical degree-based bound sum 1/(deg(v)+1); Z_1 always dominates it."""
    return zeta_weight((len(a) for a in g.adj), 1)


def turan_zeta(g: Graph, profile: ZetaProfile | None = None) -> Fraction:
    """n / (mean zeta + 1) — the averaged form of Z_1 (Z_1 dominates it)."""
    if g.n == 0:
        raise GraphInputError("turan_zeta needs at least one vertex")
    zeta = (profile or zeta_profile(g)).zeta
    mean = Fraction(sum(zeta), g.n)
    return Fraction(g.n) / (mean + 1)


def baseline_bounds(g: Graph) -> dict[str, BoundValue]:
    """Literature baselines for comparison tables: never certified here.

    ch_a1 = 2n/(ceil(dbar)+2), ch_a2 = 3n/(dbar+3), and caro_tuza_a1 =
    sum 3/(2(deg+1)) which requires minimum degree >= 2.
    """
    if g.n == 0:
        raise GraphInputError("baseline_bounds needs at least one vertex")
    dbar = Fraction(2 * g.m, g.n)
    out: dict[str, BoundValue] = {
        "ch_a1": Fraction(2 * g.n, math.ceil(dbar) + 2),
        "ch_a2": Fraction(3 * g.n) / (dbar + 3),
    }
    if min(len(a) for a in g.adj) >= 2:
        out["caro_tuza_a1"] = Fraction(3, 2) * caro_wei(g)
    else:
        out["caro_tuza_a1"] = Inapplicable("requires minimum degree >= 2")
    return out


# ── lambda machinery over independent sets of cheap vertices ────────────────

def _check_cheap_independent(g: Graph | Residual, profile: ZetaProfile | Residual,
                             s: frozenset[int]) -> None:
    if not s:
        raise GraphInputError("subset must be nonempty")
    cheap = cheap_vertices(g, profile)
    stray = s - cheap
    if stray:
        raise GraphInputError(f"vertices {sorted(stray)} are not cheap")
    for u in s:
        hit = g.adj[u] & s
        if hit:
            raise GraphInputError(f"subset is not independent: edge ({u},{min(hit)})")


def component_lambdas(g: Graph | Residual, profile: ZetaProfile | Residual,
                      s: frozenset[int]) -> list[ComponentLambda]:
    """Split the bipartite graph (S, N(S)) into components and compute lambda.

    Only S-to-N(S) edges count; edges inside N(S) are ignored.  Components are
    returned in order of their smallest vertex id.
    """
    _check_cheap_independent(g, profile, s)
    return _lambda_components(g, s)


def _lambda_components(g: Graph | Residual, s: frozenset[int]) -> list[ComponentLambda]:
    """component_lambdas for an S known to be a nonempty independent set of cheap vertices."""
    seen: set[int] = set()
    comps: list[ComponentLambda] = []
    for root in sorted(s):
        if root in seen:
            continue
        stack = [root]
        seen.add(root)
        members: set[int] = set()
        while stack:
            v = stack.pop()
            members.add(v)
            nxt = g.adj[v] if v in s else (g.adj[v] & s)
            for u in nxt:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        side_s = members & s
        side_t = members - s
        e = sum(len(g.adj[v]) for v in side_s)   # S is independent: all edges leave S
        s_n, t_n = len(side_s), len(side_t)
        comps.append(ComponentLambda(frozenset(members), s_n, t_n, e,
                                     Fraction(s_n - e + t_n, s_n)))
    return comps


def strong_bound_component(g: Graph | Residual, profile: ZetaProfile | Residual,
                           s: frozenset[int]) -> BoundValue:
    """Per-component lambda-strengthened bound on the independence number.

    Requires every component lambda to be nonnegative; otherwise reports
    Inapplicable (a negative component lambda breaks the averaging argument
    in this per-component form).  Then zeta + lambda >= 1 throughout: zeta >= 1
    off the isolated members of S, whose components have lambda = 1.
    """
    comps = component_lambdas(g, profile, s)
    neg = [c for c in comps if c.lam < 0]
    if neg:
        worst = min(neg, key=lambda c: c.lam)
        return Inapplicable(
            f"component with lambda {worst.lam} < 0 (vertices {sorted(worst.vertices)[:6]}...)")
    zeta = profile.zeta
    covered = set().union(*(c.vertices for c in comps))
    return (sum((zeta_weight((zeta[v] for v in c.vertices), c.lam) for c in comps), Fraction(0))
            + zeta_weight((zeta[v] for v in g.vertices() if v not in covered), 1))


def select_dense_subset(g: Graph | Residual, s: frozenset[int]) -> frozenset[int]:
    """Peel lowest-degree members off S and keep the prefix minimizing lambda.

    lambda(S') = 1 + (|N(S')| - e(S'))/|S'|; ties keep the largest subset.
    Because S is independent, a member's degree into N(S') is just its graph
    degree, so the peeling order is static: ascending (degree, id).
    """
    return _dense_subset(g, s)[0]


def _dense_subset(g: Graph | Residual, s: frozenset[int]) -> tuple[frozenset[int], int, int]:
    """select_dense_subset's S' with |N(S')| - e(S') and |S'|, its lambda's integer parts.

    The prefixes are compared by cross-multiplying those parts, so no
    Fraction is built.
    """
    if not s:
        raise GraphInputError("subset must be nonempty")
    order = sorted(s, key=lambda v: (len(g.adj[v]), v))
    cnt = {v: 0 for v in closed_neighborhood(g, s) - s}
    for u in order:
        for v in g.adj[u]:
            cnt[v] += 1
    nsize = len(cnt)
    e = sum(len(g.adj[u]) for u in order)
    best_j, best_num, best_size = 0, nsize - e, len(order)
    for j in range(1, len(order)):
        u = order[j - 1]      # peel u and move to the next suffix
        e -= len(g.adj[u])
        for v in g.adj[u]:
            cnt[v] -= 1
            if cnt[v] == 0:
                nsize -= 1
        size = len(order) - j
        if (nsize - e) * best_size < best_num * size:
            best_j, best_num, best_size = j, nsize - e, size
    return frozenset(order[best_j:]), best_num, best_size


def independent_cheap_set(g: Graph | Residual,
                          profile: ZetaProfile | Residual | None = None) -> frozenset[int]:
    """Greedy maximal independent subset of the cheap vertices (see _greedy_mis).

    Min-degree-first (degree inside the induced cheap subgraph), smallest id
    on ties — the same construction the certified greedy uses each round.
    O((n + m) log n): one pass for the cheap set, then the heap-ordered picks.
    """
    return _greedy_mis(g, cheap_vertices(g, profile or profile_of(g)))


def _greedy_mis(g: Graph | Residual, pool: frozenset[int]) -> frozenset[int]:
    """Greedy maximal independent set inside G[pool]: take the least (degree in G[pool], id).

    Each pick drops its closed neighbourhood from the pool.  A heap of
    (degree, id) entries holds the order: a pool vertex whose degree falls
    gets a fresh entry, and degrees only fall, so a pool vertex's least entry
    is its current one.  Popping skips the vertices no longer in the pool;
    the first other entry is the minimum over the pool.  The whole set costs
    O((|pool| + m) log |pool|).
    """
    adj = g.adj
    deg = {u: len(adj[u] & pool) for u in pool}   # pool vertex -> degree in G[pool]
    heap = [(d, u) for u, d in deg.items()]
    heapify(heap)
    out = []
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
                      ) -> tuple[Fraction, int, frozenset[int]]:
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
    zeta + lambda >= 1.
    """
    groups: dict[int, set[int]] = {}
    for u in s:
        groups.setdefault(zeta[u], set()).add(u)
    best: tuple[Fraction, int, frozenset[int]] | None = None
    for zval in sorted(groups):
        subset, num, size = _dense_subset(g, frozenset(groups[zval]))
        lam = Fraction(size + num, size)
        if best is None or lam < best[0]:
            best = (lam, zval, subset)
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
    lam, zval, subset = _min_lambda_group(g, zeta, independent_cheap_set(g, prof))
    closed = closed_neighborhood(g, subset)
    value = (zeta_weight((zeta[v] for v in closed), lam)
             + zeta_weight((zeta[v] for v in g.vertices() if v not in closed), 1))
    return GroupedBound(value=value, subset=subset, lam=lam, group_zeta=zval)


def forest_z_closed_form(n: int, isolated: int, k: int) -> Fraction:
    """Closed form of Z_{k+1} on a forest with `isolated` degree-0 vertices."""
    if n < 0 or isolated < 0 or isolated > n or k < 0:
        raise GraphInputError("need 0 <= isolated <= n and k >= 0")
    return Fraction((n - isolated) * (k + 1), k + 2) + isolated


def full_bound_report(g: Graph, profile: ZetaProfile | None = None) -> dict[str, BoundValue]:
    """Every bound this library knows, keyed by its report name.

    forest_zk is the forest closed form at k=1 (it must equal z2 exactly on
    forests — kept as a cross-check witness, inapplicable elsewhere).
    """
    prof = profile or zeta_profile(g)
    report: dict[str, BoundValue] = {
        "z1": z_bound(g, 1, prof),
        "z2": z_bound(g, 2, prof),
        "z3": z_bound(g, 3, prof),
        "caro_wei": caro_wei(g),
    }
    if g.n == 0:
        report["turan_zeta"] = Inapplicable("empty graph")
        report["strong_component"] = Inapplicable("empty graph")
        report["strong_grouped"] = Inapplicable("empty graph")
        report["caro_tuza_a1"] = Inapplicable("empty graph")
        report["ch_a1"] = Inapplicable("empty graph")
        report["ch_a2"] = Inapplicable("empty graph")
        report["forest_zk"] = Inapplicable("empty graph")
        return report
    report["turan_zeta"] = turan_zeta(g, prof)
    report["strong_component"] = strong_bound_component(
        g, prof, independent_cheap_set(g, prof))
    grouped = strong_bound_grouped(g, prof)
    report["strong_grouped"] = grouped if isinstance(grouped, Inapplicable) else grouped.value
    report.update(baseline_bounds(g))
    if is_forest(g):
        isolated = sum(1 for a in g.adj if not a)
        report["forest_zk"] = forest_z_closed_form(g.n, isolated, 1)
    else:
        report["forest_zk"] = Inapplicable("not a forest")
    return report
