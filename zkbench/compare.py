"""Compare two sets of benchmark results.

    python3 zkbench/compare.py BASE NEW

BASE and NEW are directories of result files written by `zkbench/run.py`
(`.zkbench/results/` after a series of runs, or `zkbench/baseline/`), or
single files.  For each workload and metric it prints both sides' medians and
quartiles, the ratio NEW/BASE, how many same-seed pairs NEW wins, and a
verdict under the bounds in BENCHMARK.json:

- worse:      NEW's median is worse than BASE's by more than the bound;
- better:     NEW wins at least nine tenths of the pairs and its median is
              better by more than BASE's own quartile spread;
- unresolved: either side's quartile spread is wider than the bound, unless
              every NEW run beats (or loses to) every BASE run;
- same:       otherwise.

Figures the result line does not carry (the per-command times of the
commands only some workloads run, and graph_p90_ms) are judged with
UNLISTED_BOUND.  Per-layer metrics have no bound and get no verdict.  The
result digests of each workload and seed are compared too: equal digests
mean byte-identical exact results.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# as loose as the listed command times, which share their run-to-run noise
UNLISTED_BOUND = 0.25
INFORMATIONAL = {"graph_samples"}


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, str]:
    """base/new map seed -> value; returns (pair wins, verdict)."""
    sign = 1 if better == "lower" else -1
    seeds = sorted(base.keys() & new.keys())
    wins = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    pairs = f"{wins}/{len(seeds)}"
    if bound is None:
        return pairs, "-"
    a, b = list(base.values()), list(new.values())
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    spread_a = (a3 - a1) / am if am else 0.0
    spread = max(spread_a, (b3 - b1) / bm if bm else 0.0)
    worse_by = sign * (bm - am) / am if am else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (all_better or all_worse):
        return pairs, "unresolved"
    if worse_by > bound:
        return pairs, "worse"
    if -worse_by > spread_a and seeds and wins >= 0.9 * len(seeds):
        return pairs, "better"
    return pairs, "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(Path(p)) for p in argv]
    # (workload, trace) -> metric -> side -> seed -> value
    table: dict = defaultdict(lambda: defaultdict(lambda: ([{}, {}])))
    units: dict[str, str] = {}
    digests: dict = defaultdict(lambda: ([{}, {}]))
    for side, results in enumerate(sides):
        for r in results:
            key = (r["workload"], r["trace"])
            digests[r["workload"]][side][r["seed"]] = r["digest"]
            for name, m in {**r["metrics"], **r.get("extra", {})}.items():
                if name not in INFORMATIONAL:
                    table[key][name][side][r["seed"]] = m["value"]
                    units[name] = m["unit"]
        envs = sorted({(r["git_sha"][:12], r["python"], r["nproc"]) for r in results})
        print(f"{'BASE' if side == 0 else 'NEW '} {argv[side]}: {len(results)} results; "
              f"(git sha, python, nproc) = {envs}")

    for workload, (base, new) in sorted(digests.items()):
        same = [s for s in base.keys() & new.keys() if base[s] == new[s]]
        both = base.keys() & new.keys()
        print(f"digest {workload}: {len(same)}/{len(both)} same-seed pairs byte-identical")

    print(f"{'workload':14s} {'metric':44s} {'unit':6s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'new/base':>8s} {'wins':>6s}  verdict")
    for (workload, trace), metrics in sorted(table.items()):
        for name, (base, new) in metrics.items():
            if not base or not new:
                continue
            meta = listed.get(name)
            better = meta["better"] if meta else "lower"
            bound = None if trace else (meta["bound"] if meta else UNLISTED_BOUND)
            wins, word = verdict(base, new, better, bound)
            qa, qb = quartiles(list(base.values())), quartiles(list(new.values()))
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            cells = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for q1, m, q3 in (qa, qb)]
            print(f"{workload:14s} {name:44s} {units[name]:6s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{ratio:8.4f} {wins:>6s}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
