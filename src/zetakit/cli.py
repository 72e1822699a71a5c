"""Command-line front end: graph file formats, analysis commands, bench reports.

Formats: whitespace edge lists ('#' comments, arbitrary string labels) and
DIMACS ("p edge N M" + "e u v").  All machine-readable numbers are exact —
rationals serialize as "p/q" strings with a decimal approximation column
alongside for humans.  Exit codes: 0 ok, 1 usage, 2 parse error, 3 internal
invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path

from .bounds import Inapplicable, full_bound_report, z_bound
from .cheap_sets import CheapSetSearchError
from .degeneracy import layer_decomposition, zeta_profile
from .graph import Graph, GraphInputError, build_graph, is_forest
from .greedy import (GreedyRun, cheap_greedy, forest_k_greedy, min_greedy,
                     one_cheap_greedy, two_cheap_greedy)
from .oracle import GeneratorSpec, exact_alpha_k, generate, is_in_family_F

SCHEMA = "zeta-kit/1"


class ParseError(ValueError):
    """Graph file rejected; message carries the offending line number."""


class InvariantViolation(RuntimeError):
    """A report row contradicted the theory; never ship the report."""


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class GraphDocument:
    graph: Graph
    labels: tuple[str, ...]         # external label per internal id
    fmt: str                        # "edges" | "dimacs"
    warnings: tuple[str, ...] = ()


# ── parsing / serialization ──────────────────────────────────────────────────

def parse_edge_list(text: str) -> GraphDocument:
    """Lines of "u v" label pairs; '#' starts a comment; blanks ignored.

    Labels get dense ids in first-appearance order; duplicate edges merge.
    """
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 2 tokens, found {len(tokens)}")
        a, b = tokens
        if a == b:
            raise ParseError(f"line {lineno}: self-loop on {a!r}")
        for tok in (a, b):
            if tok not in ids:
                ids[tok] = len(ids)
        edges.append((ids[a], ids[b]))
    labels = tuple(sorted(ids, key=ids.get))
    return GraphDocument(build_graph(len(ids), edges), labels, "edges")


def serialize_edge_list(doc: GraphDocument) -> str:
    for v, label in enumerate(doc.labels):
        if not label or len(label.split()) != 1 or "#" in label:
            raise GraphInputError(f"label {label!r} cannot survive the edge-list format")
        if not doc.graph.adj[v]:
            raise GraphInputError(
                f"edge-list format cannot express isolated vertex {label!r}; "
                "write DIMACS instead")
    lines = [f"{doc.labels[u]} {doc.labels[v]}" for u, v in doc.graph.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_dimacs(text: str) -> GraphDocument:
    """DIMACS: "c" comments, one "p edge N M" header, "e u v" 1-based edges.

    Header edge-count mismatches (after dedup) are warnings, not errors.
    """
    n = None
    m_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate 'p' header")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: header must read 'p edge N M'")
            try:
                n, m_declared = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header counts") from None
            if n < 0 or m_declared < 0:
                raise ParseError(f"line {lineno}: negative header counts")
            continue
        if tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge line before 'p' header")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: edge line needs 'e u v'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            for x in (u, v):
                if not 1 <= x <= n:
                    raise ParseError(f"line {lineno}: vertex id {x} outside 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop on {u}")
            edges.append((u - 1, v - 1))
            continue
        raise ParseError(f"line {lineno}: unrecognized line type {tokens[0]!r}")
    if n is None:
        raise ParseError("missing 'p edge N M' header")
    g = build_graph(n, edges)
    warnings = ()
    if g.m != m_declared:
        warnings = (f"header declares {m_declared} edges, parsed {g.m} distinct",)
    return GraphDocument(g, tuple(str(i + 1) for i in range(n)), "dimacs", warnings)


def serialize_dimacs(doc: GraphDocument) -> str:
    g = doc.graph
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The file, or stdin for '-', decoded as UTF-8; undecodable bytes are a parse error."""
    try:
        if path != "-":
            return Path(path).read_bytes().decode("utf-8")
        raw = getattr(sys.stdin, "buffer", None)     # absent on a replaced text stream
        return raw.read().decode("utf-8") if raw is not None else sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _has_dimacs_header(text: str) -> bool:
    """True when the first line that is not blank or a comment reads 'p edge ...'.

    Such a line has more than two tokens, so it is never a valid edge-list line.
    """
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] != "c":
            return tokens[:2] == ["p", "edge"] and len(tokens) > 2
    return False


def _load(path: str, fmt: str) -> GraphDocument:
    text = _read_text(path)
    if fmt == "auto":
        dimacs = Path(path).suffix in (".dimacs", ".col") or _has_dimacs_header(text)
        fmt = "dimacs" if dimacs else "edges"
    if fmt == "dimacs":
        return parse_dimacs(text)
    return parse_edge_list(text)


# ── value rendering ──────────────────────────────────────────────────────────

def _rat(x) -> dict:
    if isinstance(x, Inapplicable):
        return {"inapplicable": x.reason}
    f = Fraction(x)
    return {"exact": str(f), "approx": round(float(f), 6)}


def _names(doc: GraphDocument, vertices) -> list[str]:
    return [doc.labels[v] for v in sorted(vertices)]


# ── commands ─────────────────────────────────────────────────────────────────

def _cmd_zeta(args) -> dict:
    doc = _load(args.file, args.format)
    prof = zeta_profile(doc.graph)
    layers = layer_decomposition(doc.graph, prof)
    return {
        "schema": SCHEMA,
        "command": "zeta",
        "n": doc.graph.n,
        "m": doc.graph.m,
        "labels": list(doc.labels),
        "zeta": list(prof.zeta),
        "degeneracy": prof.degeneracy,
        "cheap": _names(doc, layers.layers[0] if layers.layers else ()),   # = the cheap set
        "layers": [_names(doc, layer) for layer in layers.layers],
        "warnings": list(doc.warnings),
    }


def _cmd_bounds(args) -> dict:
    doc = _load(args.file, args.format)
    report = full_bound_report(doc.graph)
    return {
        "schema": SCHEMA,
        "command": "bounds",
        "n": doc.graph.n,
        "m": doc.graph.m,
        # forest_zk applies exactly on the nonempty forests; the empty graph is one too
        "is_forest": not (doc.graph.n and isinstance(report["forest_zk"], Inapplicable)),
        "bounds": {name: _rat(val) for name, val in report.items()},
        "warnings": list(doc.warnings),
    }


_ALGOS = ("min", "cheap", "1cheap", "2cheap", "forest-k")


def _run_greedy(g: Graph, algo: str, k: int | None, seed: int | None) -> GreedyRun:
    if algo == "min":
        return min_greedy(g, seed=seed)
    if algo == "cheap":
        return cheap_greedy(g)
    if algo == "1cheap":
        return one_cheap_greedy(g)
    if algo == "2cheap":
        return two_cheap_greedy(g)
    return forest_k_greedy(g, 1 if k is None else k)


def _cmd_greedy(args) -> dict:
    if args.seed is not None and args.algo != "min":
        raise _UsageError("--seed applies only to --algo min")
    if args.k is not None and args.algo != "forest-k":
        raise _UsageError("--k applies only to --algo forest-k")
    doc = _load(args.file, args.format)
    run = _run_greedy(doc.graph, args.algo, args.k, args.seed)
    out = {
        "schema": SCHEMA,
        "command": "greedy",
        "algo": args.algo,
        "level": run.level,
        "size": len(run.chosen),
        "chosen": _names(doc, run.chosen),
        "certificate": _rat(run.certificate),
        "certificate_ceil": ceil(run.certificate),
        "warnings": list(doc.warnings),
    }
    if args.trace:
        out["trace"] = [{
            "kind": step.kind,
            "picked": _names(doc, step.picked),
            "removed": _names(doc, step.removed),
            "contribution": _rat(step.contribution),
            "lambda": None if step.lam is None else _rat(step.lam),
        } for step in run.trace]
    return out


def _cmd_oracle(args) -> dict:
    doc = _load(args.file, args.format)
    size, witness = exact_alpha_k(doc.graph, args.k, limit=args.limit)
    return {
        "schema": SCHEMA,
        "command": "oracle",
        "k": args.k,
        "alpha": size,
        "witness": _names(doc, witness),
        "warnings": list(doc.warnings),
    }


def _cmd_family_f(args) -> dict:
    doc = _load(args.file, args.format)
    member, parts = is_in_family_F(doc.graph)
    return {
        "schema": SCHEMA,
        "command": "family-f",
        "member": member,
        "witness": None if parts is None else [_names(doc, p) for p in parts],
        "warnings": list(doc.warnings),
    }


def _cmd_gen(args) -> dict:
    spec = GeneratorSpec(
        family=args.family, n=args.n, k=args.k, p=args.p, seed=args.seed,
        sizes=args.sizes, extra_edges=args.extra_edges, attach=args.attach)
    g = generate(spec)
    doc = GraphDocument(g, tuple(str(v) for v in range(g.n)), "edges")
    out = Path(args.out)
    if out.suffix in (".dimacs", ".col"):
        out.write_text(serialize_dimacs(doc))
    else:
        out.write_text(serialize_edge_list(doc))
    return {
        "schema": SCHEMA,
        "command": "gen",
        "family": args.family,
        "n": g.n,
        "m": g.m,
        "out": str(out),
    }


def _cmd_conjecture(args) -> dict:
    """Search for counterexamples to alpha_k >= Z_{k+1}; report only."""
    if args.trials < 0:
        raise _UsageError(f"--trials must be >= 0, got {args.trials}")
    rng = random.Random(args.seed)
    probs = (0.1, 0.3, 0.5, 0.7)
    violations = []
    min_slack: Fraction | None = None
    for trial in range(args.trials):
        p = probs[trial % len(probs)]
        sub_seed = rng.randrange(2**32)
        g = generate(GeneratorSpec("random-gnp", n=args.n, p=p, seed=sub_seed))
        alpha, _ = exact_alpha_k(g, args.k)
        bound = z_bound(g, args.k + 1)
        slack = Fraction(alpha) - bound
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if alpha < bound:
            violations.append({
                "trial": trial, "p": p, "seed": sub_seed,
                "alpha": alpha, "bound": _rat(bound),
                "edges": [list(e) for e in g.edges()],
            })
    return {
        "schema": SCHEMA,
        "command": "conjecture",
        "k": args.k,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "violations": violations,
        "min_slack": None if min_slack is None else _rat(min_slack),
    }


# ── bench ────────────────────────────────────────────────────────────────────

_BOUND_KEYS = ("z1", "z2", "z3", "caro_wei", "turan_zeta", "strong_component",
               "strong_grouped", "ch_a1", "ch_a2", "caro_tuza_a1", "forest_zk")
# ch_a1/ch_a2/caro_tuza_a1 bound the level-1/2 numbers, not alpha0
_ALPHA0_BOUND_KEYS = ("z1", "caro_wei", "turan_zeta", "strong_component",
                      "strong_grouped")
_BENCH_ALGOS = ("min", "cheap", "1cheap", "2cheap", "forest-k1")


def _bench_row(path: Path, oracle_n: int) -> dict:
    t0 = time.perf_counter()
    doc = _load(str(path), "auto")
    t1 = time.perf_counter()
    g = doc.graph
    prof = zeta_profile(g)
    t2 = time.perf_counter()
    report = full_bound_report(g, prof)
    t3 = time.perf_counter()

    greedy: dict[str, dict] = {}
    for algo in _BENCH_ALGOS:
        if algo == "forest-k1" and not (is_forest(g) and g.n > 0):
            continue
        run = _run_greedy(g, "forest-k" if algo == "forest-k1" else algo,
                          1, seed=0)
        greedy[algo] = {"size": len(run.chosen),
                        "certificate": run.certificate,
                        "level": run.level}
    t4 = time.perf_counter()
    alpha0 = exact_alpha_k(g, 0)[0] if g.n <= oracle_n else None
    try:
        family_f = is_in_family_F(g)[0]
    except GraphInputError:        # no structural cover, too big for the oracle
        family_f = None
    t5 = time.perf_counter()

    zs = prof.zeta
    row = {
        "name": path.name,
        "n": g.n,
        "m": g.m,
        "zeta_min": min(zs) if zs else 0,
        "zeta_max": max(zs) if zs else 0,
        "zeta_mean": Fraction(sum(zs), g.n) if g.n else Fraction(0),
        "bounds": report,
        "greedy": greedy,
        "alpha0": alpha0,
        "family_f": family_f,
        "anomalies": 0,                 # a key of zeta-kit/1 rows; a failed finder raises
        "timing_ms": {
            "parse": int(round((t1 - t0) * 1000)),
            "zeta": int(round((t2 - t1) * 1000)),
            "bounds": int(round((t3 - t2) * 1000)),
            "greedy": int(round((t4 - t3) * 1000)),
            "oracle": int(round((t5 - t4) * 1000)),
        },
        "warnings": list(doc.warnings),
    }
    _check_row(row)
    return row


def _check_row(row: dict) -> None:
    name = row["name"]
    for algo, res in row["greedy"].items():
        if res["size"] < ceil(res["certificate"]):
            raise InvariantViolation(
                f"{name}: {algo} returned {res['size']} < ceil certificate "
                f"{res['certificate']}")
    alpha0 = row["alpha0"]
    if alpha0 is not None:
        for key in _ALPHA0_BOUND_KEYS:
            val = row["bounds"].get(key)
            if isinstance(val, Fraction) and alpha0 < val:
                raise InvariantViolation(f"{name}: alpha0 {alpha0} < {key} {val}")
        for algo in ("min", "cheap"):
            if algo in row["greedy"] and row["greedy"][algo]["size"] > alpha0:
                raise InvariantViolation(
                    f"{name}: {algo} size exceeds exact alpha0")
    z2, fzk = row["bounds"].get("z2"), row["bounds"].get("forest_zk")
    if isinstance(fzk, Fraction) and fzk != z2:
        raise InvariantViolation(f"{name}: forest closed form {fzk} != z2 {z2}")


def _row_json(row: dict) -> dict:
    out = dict(row)
    out["zeta_mean"] = _rat(row["zeta_mean"])
    out["bounds"] = {k: _rat(v) for k, v in row["bounds"].items()}
    out["greedy"] = {a: {"size": r["size"], "level": r["level"],
                         "certificate": _rat(r["certificate"])}
                     for a, r in row["greedy"].items()}
    return out


def _row_csv(row: dict) -> dict:
    flat = {
        "name": row["name"], "n": row["n"], "m": row["m"],
        "zeta_min": row["zeta_min"], "zeta_max": row["zeta_max"],
        "zeta_mean_exact": str(row["zeta_mean"]),
        "zeta_mean_approx": round(float(row["zeta_mean"]), 6),
    }
    for key in _BOUND_KEYS:
        val = row["bounds"].get(key)
        if isinstance(val, Fraction):
            flat[f"{key}_exact"] = str(val)
            flat[f"{key}_approx"] = round(float(val), 6)
        else:
            flat[f"{key}_exact"] = ""
            flat[f"{key}_approx"] = ""
    for algo in _BENCH_ALGOS:
        res = row["greedy"].get(algo)
        col = algo.replace("-", "_")
        flat[f"{col}_size"] = res["size"] if res else ""
        flat[f"{col}_cert_exact"] = str(res["certificate"]) if res else ""
        flat[f"{col}_cert_approx"] = round(float(res["certificate"]), 6) if res else ""
    flat["alpha0"] = "" if row["alpha0"] is None else row["alpha0"]
    flat["family_f"] = "" if row["family_f"] is None else row["family_f"]
    for phase, ms in row["timing_ms"].items():
        flat[f"ms_{phase}"] = ms
    flat["warnings"] = ";".join(row["warnings"])
    return flat


def _cmd_bench(args) -> dict | None:
    root = Path(args.dir)
    if not root.is_dir():
        raise _UsageError(f"--dir {args.dir!r} is not a directory")
    files = sorted(p for p in root.iterdir()
                   if p.is_file() and not p.name.startswith("."))
    if not files:
        raise _UsageError(f"no graph files in {args.dir!r}")
    out = Path(args.out)
    if out.suffix not in (".json", ".csv"):
        raise _UsageError("--out must end in .json or .csv")

    rows = [_bench_row(p, args.oracle_n) for p in files]

    if out.suffix == ".json":
        payload = {"schema": SCHEMA, "command": "bench",
                   "rows": [_row_json(r) for r in rows]}
        out.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        flat = [_row_csv(r) for r in rows]
        with out.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(flat[0]))
            writer.writeheader()
            writer.writerows(flat)
    return {"schema": SCHEMA, "command": "bench",
            "graphs": len(rows), "out": str(out)}


# ── argument plumbing ────────────────────────────────────────────────────────

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sizes list {text!r}") from None


def _build_parser() -> _Parser:
    top = _Parser(prog="zeta-kit",
                  description="Degeneracy profiles, independence bounds, "
                              "certified greedy solvers.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def graph_cmd(name: str, help_: str) -> _Parser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="graph file, or '-' for stdin")
        p.add_argument("--format", choices=("auto", "edges", "dimacs"),
                       default="auto")
        return p

    graph_cmd("zeta", "print the zeta profile, cheap vertices, and layers")
    graph_cmd("bounds", "print every lower bound in the report")
    g = graph_cmd("greedy", "run one certified greedy algorithm")
    g.add_argument("--algo", choices=_ALGOS, required=True)
    g.add_argument("--k", type=int, default=None,
                   help="inner-degree budget for forest-k (default 1)")
    g.add_argument("--seed", type=int, default=None,
                   help="tie-break seed for --algo min")
    g.add_argument("--trace", action="store_true")
    o = graph_cmd("oracle", "exact max k-independent set (small graphs)")
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--limit", type=int, default=None,
                   help="override the size guard")
    graph_cmd("family-f", "test membership in the Z1-equality family")

    gen = sub.add_parser("gen", help="write a generated graph to a file")
    gen.add_argument("--family", required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--p", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--sizes", type=_sizes)
    gen.add_argument("--extra-edges", type=int, default=0)
    gen.add_argument("--attach", type=float, default=0.85)
    gen.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="analyze a directory of graph files")
    b.add_argument("--dir", required=True)
    b.add_argument("--out", required=True, help="report path (.json or .csv)")
    b.add_argument("--oracle-n", type=int, default=18,
                   help="solve alpha0 exactly when n is at most this")

    c = sub.add_parser("conjecture",
                       help="random search for alpha_k < Z_{k+1} (report only)")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--trials", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)

    return top


_DISPATCH = {
    "zeta": _cmd_zeta,
    "bounds": _cmd_bounds,
    "greedy": _cmd_greedy,
    "oracle": _cmd_oracle,
    "family-f": _cmd_family_f,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "conjecture": _cmd_conjecture,
}


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _DISPATCH[args.cmd](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CheapSetSearchError, InvariantViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    if payload is not None:
        print(json.dumps(payload, indent=2))
    return 0


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
