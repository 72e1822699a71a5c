"""zeta-kit benchmark: one workload, one seed, one process, one thread.

    python3 zkbench/run.py --workload greedy-sparse --seed 1 --seconds 35 --trace 0

Set-up imports zetakit from `src/` of this checkout, generates the workload's
inputs from the seed and parses them; it is repeated a few times and its
median is `setup_s`.  The run then takes the workload's graphs through their
pipeline in a closed loop, one pass over all graphs after another, until the
next pass would overrun `--seconds` (at least one pass).  Every output is
checked; failures are counted, never fatal.

Every time is in reference seconds: wall time corrected by the speed of the
host at that moment, which a fixed kernel of the benchmark's own measures
every 50 ms (see `yardstick.py`).  The detail record also carries the
plain wall-clock figures and the host's speed.

With `--trace 0` the last line of stdout carries the end-to-end metrics:
graphs_per_s is a median over the passes, and each command time is the sum,
over every operation on every graph, of the median of all the run's timed
calls of that operation.  With `--trace 1` the first half of the time
runs untraced and the second half traced, and the last line carries the
per-layer metrics of the traced passes plus the tracing overhead; the exact
results of both halves must agree.  The line before it is a JSON record with
the details (digest, graph sizes, environment, metrics the result line does
not carry), which is also written to `.zkbench/results/`; traced runs write
their spans to `.zkbench/spans/`.  `zkbench/compare.py` compares two sets of
result files.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from pipeline import GREEDIES, GraphRun, digest_of  # noqa: E402
from tracer import Tracer, layer_metrics, metric_names, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import Yardstick  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".zkbench"
# set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S have passed
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_S = 1.5
MODULES = ("graph", "degeneracy", "bounds", "cheap_sets", "greedy", "oracle", "cli")
# command times every workload reports, and the ones only some workloads run
COMMON_TIMES = ("parse_s", "zeta_s", "bounds_s")
OPTIONAL_TIMES = tuple(metric for metric, _, _ in GREEDIES) + ("oracle_s",)
# graph latency percentiles are reported only where p90 has ten samples beyond it
LATENCY_MIN_SAMPLES = 100


def load_zetakit() -> SimpleNamespace:
    """Import zetakit afresh from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "zetakit" or m.startswith("zetakit.")]:
        del sys.modules[name]
    package = importlib.import_module("zetakit")
    if Path(package.__file__).resolve().parent != SRC / "zetakit":
        raise ImportError(f"zetakit was imported from {package.__file__}, not {SRC}")
    lib = SimpleNamespace(modules=[package])
    for name in MODULES:
        module = importlib.import_module(f"zetakit.{name}")
        setattr(lib, name, module)
        lib.modules.append(module)
    return lib


def set_up(workload: str, seed: int, yardstick: Yardstick):
    """Import, generate and parse once; returns (reference seconds, wall seconds, lib, items)."""
    with yardstick:
        t0 = perf_counter()
        lib = load_zetakit()
        items = WORKLOADS[workload][0](seed)
        for item in items:
            parse = lib.cli.parse_dimacs if item.fmt == "dimacs" else lib.cli.parse_edge_list
            parse(item.text)
        t1 = perf_counter()
    return yardstick.reference_s(t0, t1), t1 - t0, lib, items


def run_pass(lib, items, workload: str, yardstick: Yardstick,
             tracer: Tracer | None = None) -> SimpleNamespace:
    """One pass over the workload's graphs, reduced to what the metrics need."""
    _, stages, reps = WORKLOADS[workload]

    def run_graph(item) -> GraphRun:
        # Each graph starts with nothing of the earlier graphs left for the
        # collector to scan, so that a full collection of the benchmark's own
        # leftovers cannot land in one of its timed calls; where it would land
        # depends on the seed, and it would then do so in every pass.
        gc.collect()
        gc.freeze()
        return GraphRun(lib, item, yardstick, reps).run(stages)

    with yardstick:
        if tracer is None:
            runs = [run_graph(item) for item in items]
        else:
            with tracer:
                runs = [run_graph(item) for item in items]
    for run in runs:
        run.settle()
    p = SimpleNamespace(
        wall={metric: sum(run.wall[metric] for run in runs) for metric in COMMON_TIMES},
        speed=yardstick.speed(),
        latencies=[run.latency for run in runs],
        samples=[run.samples for run in runs],
        digest=digest_of(runs),
        attempted=sum(run.attempted for run in runs),
        failed=sum(run.failed for run in runs),
        problems=[msg for run in runs for msg in run.problems])
    p.busy = sum(p.latencies)
    if tracer is not None:
        p.spans = tracer.take()
        p.layers = layer_metrics(p.spans, runs, yardstick)
    return p


def measure(lib, items, workload: str, seconds: float, yardstick: Yardstick,
            tracer: Tracer | None = None) -> list:
    """Closed loop of passes; stops before a pass that would overrun `seconds`.

    Only the last traced pass keeps its spans."""
    passes = []
    start = perf_counter()
    while True:
        p = run_pass(lib, items, workload, yardstick, tracer)
        if tracer is not None and passes:
            del passes[-1].spans
        passes.append(p)
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def command_times(passes) -> Counter:
    """Each command's time over the workload's graphs: for every operation on
    every graph, the median of all its timed calls in the run, summed."""
    totals: Counter = Counter()
    for graph in zip(*(p.samples for p in passes)):     # one graph, every pass
        for step in zip(*graph):                          # one operation, every pass
            totals[step[0][0]] += statistics.median(x for _, spent in step for x in spent)
    return totals


def end_to_end(passes, setup: list[float]) -> tuple[dict, dict]:
    """The result line's metrics, and extra figures for the detail record."""
    lat = sorted(x for p in passes for x in p.latencies)
    med = statistics.median
    times = command_times(passes)
    metrics = {
        "setup_s": (med(setup), "s"),
        "graphs_per_s": (med([len(p.latencies) / p.busy for p in passes]), "1/s"),
    }
    for metric in COMMON_TIMES:
        metrics[metric] = (times[metric], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra = {metric: (times[metric], "s") for metric in OPTIONAL_TIMES if times[metric]}
    extra["graph_samples"] = (len(lat), "count")
    if len(lat) >= LATENCY_MIN_SAMPLES:
        extra["graph_p50_ms"] = (med(lat) * 1e3, "ms")
        extra["graph_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms")
    return metrics, extra


def per_layer(untraced, traced) -> dict:
    names = metric_names()
    overhead = statistics.median(p.busy for p in traced) / statistics.median(
        p.busy for p in untraced)
    out = {}
    for name, unit in names:
        value = overhead if name == "trace.overhead_ratio" else statistics.median(
            p.layers[name] for p in traced)
        out[name] = (value, unit)
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "zetakit").is_dir():
        print(f"zkbench: no zetakit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    yardstick = Yardstick()
    setup: list[float] = []
    setup_wall: list[float] = []
    while len(setup) < SETUP_MIN_REPS or (
            sum(setup_wall) < SETUP_MIN_S and len(setup) < SETUP_MAX_REPS):
        seconds, wall, lib, items = set_up(args.workload, args.seed, yardstick)
        setup.append(seconds)
        setup_wall.append(wall)
        gc.collect()
    # the inputs live for the whole run; keep them out of the collector's scans
    gc.freeze()

    if args.trace:
        untraced = measure(lib, items, args.workload, args.seconds / 2, yardstick)
        traced = measure(lib, items, args.workload, args.seconds / 2, yardstick, Tracer(lib))
        passes = untraced + traced
        metrics, extra = per_layer(untraced, traced), {}
    else:
        passes = measure(lib, items, args.workload, args.seconds, yardstick)
        metrics, extra = end_to_end(passes, setup)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    problems = [msg for p in passes for msg in p.problems][:10]
    if len(digests) > 1:
        problems.insert(0, f"exact results differ between passes: {digests}")
    correct = failed == 0 and len(digests) == 1

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "pass_busy_s": [p.busy for p in passes],
        "pass_speed": [p.speed for p in passes],
        "wall_s": {metric: statistics.median(p.wall[metric] for p in passes)
                   for metric in COMMON_TIMES} | {"setup_s": statistics.median(setup_wall)},
        "digest": digests[0],
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_runs_s": setup, "setup_runs_wall_s": setup_wall,
        "graphs": [{"name": item.name, "n": item.n, "m": len(item.edges)} for item in items],
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        write_spans(OUT / "spans" / f"{stem}.json", traced[-1].spans)
    print(json.dumps(detail, separators=(",", ":")))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"zkbench: cannot import zetakit: {exc}", file=sys.stderr)
        sys.exit(2)
