"""Generate a small reproducible graph corpus and run the bench pipeline on it.

Usage: python3 scripts/run_bench.py [outdir] [--seed S]
Writes the graphs to outdir/graphs/, the report to outdir/bench.json and
outdir/bench.csv, and prints the per-row timing summary.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from zetakit.cli import run_command  # noqa: E402

FAMILIES = [
    ("path", {"n": 40}),
    ("cycle", {"n": 40}),
    ("complete", {"n": 12}),
    ("star", {"n": 16}),
    ("example1", {"k": 3}),
    # random samples may have isolated vertices, which edge lists can't carry
    ("random-gnp", {"n": 28, "p": 0.2, "_ext": ".dimacs"}),
    ("random-gnp", {"n": 28, "p": 0.5, "_ext": ".dimacs"}),
    ("random-forest", {"n": 40, "_ext": ".dimacs"}),
    ("disjoint-cliques", {"sizes": "4,4,5"}),
    ("family-F", {"sizes": "3,3,4", "extra_edges": 2}),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="bench_out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    graphs = os.path.join(args.outdir, "graphs")
    os.makedirs(graphs, exist_ok=True)

    for i, (family, opts) in enumerate(FAMILIES):
        opts = dict(opts)
        ext = opts.pop("_ext", ".edges")
        name = f"{i:02d}_{family.replace('-', '_')}"
        argv = ["gen", "--family", family, "--seed", str(args.seed + i),
                "--out", os.path.join(graphs, name + ext)]
        for key, val in opts.items():
            argv += [f"--{key.replace('_', '-')}", str(val)]
        rc = run_command(argv)
        if rc != 0:
            print(f"gen failed for {family}: rc={rc}", file=sys.stderr)
            return rc

    rc = run_command(["bench", "--dir", graphs,
                      "--out", os.path.join(args.outdir, "bench.json")])
    if rc != 0:
        return rc
    rc = run_command(["bench", "--dir", graphs,
                      "--out", os.path.join(args.outdir, "bench.csv")])
    if rc != 0:
        return rc

    with open(os.path.join(args.outdir, "bench.json")) as fh:
        report = json.load(fh)
    print(f"\n{len(report['rows'])} rows -> {args.outdir}/bench.json, bench.csv")
    for row in report["rows"]:
        total = sum(row["timing_ms"].values())
        print(f"  {row['name']:28s} n={row['n']:3d} m={row['m']:4d} "
              f"total={total}ms alpha0={row.get('alpha0')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
