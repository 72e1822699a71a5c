"""One graph's trip through the zetakit commands, with checks and a digest.

Each command is one timed operation on the parsed graph.  Its output is then
checked outside the timed region against facts recomputed here or by an
independent oracle; an operation fails when it raises (other than the
documented size guard of `exact_alpha_k`) or when a check fails, and a
failure is counted, never fatal.  Every exact result is folded into a
SHA-256 digest so that outputs can be compared byte for byte across commits.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import ceil
from statistics import median
from time import perf_counter

# metric, greedy function, level (max degree allowed inside the chosen set);
# forest_k_greedy runs at k = 1 and only on forests
GREEDIES = (
    ("greedy_min_s", "min_greedy", 0),
    ("greedy_cheap_s", "cheap_greedy", 0),
    ("greedy_1cheap_s", "one_cheap_greedy", 1),
    ("greedy_2cheap_s", "two_cheap_greedy", 2),
    ("greedy_forest_s", "forest_k_greedy", 1),
)
BOUND_KEYS = frozenset(("z1", "z2", "z3", "caro_wei", "turan_zeta", "strong_component",
                        "strong_grouped", "ch_a1", "ch_a2", "caro_tuza_a1", "forest_zk"))
# the report entries that bound alpha_k, by k
ALPHA_BOUNDS = {0: ("z1", "caro_wei", "turan_zeta", "strong_component", "strong_grouped"),
                1: ("z2", "ch_a1", "caro_tuza_a1"),
                2: ("z3", "ch_a2")}
# documented size guard of exact_alpha_k: n <= 40 for k = 0, n <= 20 for k >= 1
ORACLE_CAP = {0: 40, 1: 20, 2: 20}


class Refused(Exception):
    """The oracle's documented size guard declined the graph."""


def z_from_zeta(zeta, k: int) -> Fraction:
    """Z_k summed over the zeta histogram, independently of zetakit.bounds."""
    shift = Fraction(1, k)
    return sum((c * min(Fraction(1), 1 / (z + shift)) for z, c in Counter(zeta).items()),
               Fraction(0))


def max_inner_degree(adj, s) -> int:
    return max((len(adj[v] & s) for v in s), default=0)


def _rat(x) -> str:
    return str(x) if isinstance(x, Fraction) else f"inapplicable:{x.reason}"


class GraphRun:
    """Runs the workload's stages on one input and keeps what they produced."""

    def __init__(self, lib, item, yardstick, reps: int = 1):
        self.lib = lib
        self.item = item
        self.yardstick = yardstick
        self.reps = reps                # calls per timing of parse, zeta and bounds
        self.calls: list[tuple[str, list[tuple[float, float]]]] = []
        # filled by settle(): reference seconds of each call, by step, and the
        # per-metric sums of their medians, in reference and in wall seconds
        self.samples: list[tuple[str, list[float]]] = []
        self.times: Counter = Counter()
        self.wall: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: list = []
        self.rounds: Counter = Counter()
        self.layers = 0
        self.family_calls = 0
        self.family_structural = 0
        self.refused = 0

    @property
    def latency(self) -> float:
        return sum(self.times.values())

    def settle(self) -> None:
        """Convert the recorded call intervals to times, once the yardstick's block is left."""
        ref = self.yardstick.reference_s
        for metric, intervals in self.calls:
            spent = [ref(t0, t1) for t0, t1 in intervals]
            self.samples.append((metric, spent))
            self.times[metric] += median(spent)
            self.wall[metric] += median(t1 - t0 for t0, t1 in intervals)

    def step(self, metric: str, call, check=None, reps: int = 1):
        """Time one operation, then check its output outside the timed region.

        With reps > 1 the call is made that many times back to back and its
        time is the median of those calls."""
        self.attempted += 1
        intervals: list[tuple[float, float]] = []
        self.calls.append((metric, intervals))
        try:
            for _ in range(reps):
                t0 = perf_counter()
                try:
                    out = call()
                finally:
                    intervals.append((t0, perf_counter()))
        except Refused:
            self.refused += 1
            self.digest.append((metric, "refused"))
            return None
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self._fail(metric, f"{type(exc).__name__}: {exc}")
            self.digest.append((metric, f"error:{type(exc).__name__}"))
            return None
        try:
            problem = check(out) if check else None
        except Exception as exc:  # noqa: BLE001 - malformed output fails its check
            problem = f"output could not be checked: {type(exc).__name__}: {exc}"
        if problem:
            self._fail(metric, problem)
        return out

    def _fail(self, metric: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{self.item.name}: {metric}: {why}")

    def run(self, stages) -> "GraphRun":
        lib, item = self.lib, self.item
        parse = lib.cli.parse_dimacs if item.fmt == "dimacs" else lib.cli.parse_edge_list
        doc = self.step("parse_s", lambda: parse(item.text), self._check_parse, self.reps)
        if doc is None:
            return self
        g = self.g = doc.graph
        self.zeta_ref = lib.degeneracy.zeta_oracle(g)
        self.report = None
        self.sizes: dict[int, list[int]] = {0: [], 1: [], 2: []}
        if "zeta" in stages:
            self.step("zeta_s", lambda: self._zeta_command(g), self._check_zeta, self.reps)
        if "bounds" in stages:
            self.report = self.step("bounds_s", lambda: lib.bounds.full_bound_report(g),
                                    self._check_bounds, self.reps)
        if "greedy" in stages:
            for metric, fn, level in GREEDIES:
                if fn == "forest_k_greedy" and not item.forest:
                    continue
                args = (g, 1) if fn == "forest_k_greedy" else (g,)
                self.step(metric, lambda: getattr(lib.greedy, fn)(*args),
                          lambda run: self._check_greedy(fn, level, run))
        if "oracle" in stages:
            alpha: dict[int, int] = {}
            for k in (0, 1, 2):
                self.step("oracle_s", lambda: self._alpha(k),
                          lambda res: self._check_alpha(k, res, alpha))
            self.step("oracle_s", lambda: lib.oracle.is_in_family_F(g),
                      lambda res: self._check_family(alpha.get(0), res))
        return self

    # ── commands ────────────────────────────────────────────────────────────

    def _zeta_command(self, g):
        deg = self.lib.degeneracy
        prof = deg.zeta_profile(g)
        return prof, deg.cheap_vertices(g, prof), deg.layer_decomposition(g)

    def _alpha(self, k: int):
        try:
            return self.lib.oracle.exact_alpha_k(self.g, k)
        except self.lib.graph.GraphInputError:
            if self.g.n > ORACLE_CAP[k]:
                raise Refused from None
            raise

    # ── checks: each returns None or a description of what is wrong ────────

    def _check_parse(self, doc):
        item, g = self.item, doc.graph
        if (g.n, g.m) != (item.n, len(item.edges)):
            return f"parsed n={g.n} m={g.m}, generated n={item.n} m={len(item.edges)}"
        ids = ([int(label) - 1 for label in doc.labels] if item.fmt == "dimacs"
               else [int(label[1:]) for label in doc.labels])
        parsed = sorted(tuple(sorted((ids[u], ids[v]))) for u, v in g.edges())
        if parsed != sorted(item.edges):
            return "parsed edge set differs from the generated one"
        self.digest.append(("parse", g.n, g.m))
        return None

    def _check_zeta(self, out):
        prof, cheap, dec = out
        n = self.g.n
        self.layers += len(dec.layers)
        self.digest.append(("zeta", list(prof.zeta), sorted(cheap),
                            [sorted(layer) for layer in dec.layers]))
        if tuple(prof.zeta) != tuple(self.zeta_ref):
            return "zeta_profile differs from zeta_oracle"
        if prof.degeneracy != max(prof.zeta, default=0):
            return "degeneracy is not the largest zeta"
        if n and dec.layers[0] != cheap:
            return "first layer is not the cheap set"
        layer_of = [-1] * n
        for i, layer in enumerate(dec.layers):
            for v in layer:
                layer_of[v] = i
        if sum(map(len, dec.layers)) != n or -1 in layer_of or tuple(layer_of) != dec.layer_of:
            return "layers do not partition the vertices"
        return None

    def _check_bounds(self, report):
        self.digest.append(("bounds", sorted((k, _rat(v)) for k, v in report.items())))
        if set(report) != BOUND_KEYS:
            return f"report keys {sorted(report)}"
        if not self.g.n:
            return None
        z = [z_from_zeta(self.zeta_ref, k) for k in (1, 2, 3)]
        if [report["z1"], report["z2"], report["z3"]] != z:
            return "z1/z2/z3 differ from Z_k summed over zeta_oracle"
        if report["caro_wei"] > report["z1"]:
            return "caro_wei exceeds z1"
        forest_zk = report["forest_zk"]
        if self.item.forest != isinstance(forest_zk, Fraction) or (
                self.item.forest and forest_zk != report["z2"]):
            return f"forest_zk {_rat(forest_zk)} against z2 {report['z2']}"
        return None

    def _check_greedy(self, fn: str, level: int, run):
        self.rounds[fn] += sum(1 for s in run.trace if s.kind != "isolated-block")
        self.sizes[level].append(len(run.chosen))
        self.digest.append((fn, run.level, sorted(run.chosen), str(run.certificate),
                            [(s.kind, list(s.picked), list(s.removed), str(s.contribution),
                              None if s.lam is None else str(s.lam)) for s in run.trace]))
        if run.anomalies:
            return f"{len(run.anomalies)} anomalies, first {run.anomalies[0]}"
        if run.level != level or not run.chosen <= frozenset(range(self.g.n)):
            return "wrong level or vertex ids"
        inner = max_inner_degree(self.g.adj, run.chosen)
        if inner > level:
            return f"chosen set has inner degree {inner} > {level}"
        if len(run.chosen) < ceil(run.certificate):
            return f"size {len(run.chosen)} < ceil(certificate {run.certificate})"
        if run.certificate < z_from_zeta(self.zeta_ref, level + 1):
            return f"certificate {run.certificate} < Z_{level + 1}"
        return None

    def _check_alpha(self, k: int, res, alpha: dict[int, int]):
        size, witness = res
        alpha[k] = size
        self.digest.append(("alpha", k, size, sorted(witness)))
        if len(witness) != size or max_inner_degree(self.g.adj, witness) > k:
            return f"witness of alpha_{k} is not a {k}-independent set of size {size}"
        if alpha.get(k - 1, 0) > size:
            return f"alpha_{k} = {size} < alpha_{k - 1} = {alpha[k - 1]}"
        if self.report is not None:
            for key in ALPHA_BOUNDS[k]:
                val = self.report[key]
                if isinstance(val, Fraction) and val > size:
                    return f"bound {key} = {val} exceeds alpha_{k} = {size}"
        if any(s > size for s in self.sizes[k]):
            return f"greedy size {max(self.sizes[k])} exceeds alpha_{k} = {size}"
        return None

    def _check_family(self, alpha0, res):
        member, parts = res
        self.family_calls += 1
        self.family_structural += parts is not None
        self.digest.append(("family_f", member,
                            None if parts is None else sorted(sorted(p) for p in parts)))
        z1 = z_from_zeta(self.zeta_ref, 1)
        if alpha0 is not None and member != (alpha0 == z1):
            return f"member={member} but alpha0={alpha0}, Z_1={z1}"
        if self.item.family_f and not member:
            return "generated family-F graph not recognized"
        if parts is not None:
            covered = sorted(v for p in parts for v in p)
            if len(parts) != z1 or covered != list(range(self.g.n)) or any(
                    max_inner_degree(self.g.adj, p) != len(p) - 1 for p in parts):
                return "structural witness is not a clique cover of size Z_1"
        return None


def digest_of(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(json.dumps([run.item.name, run.digest], separators=(",", ":")).encode())
    return h.hexdigest()
