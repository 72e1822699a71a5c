"""Spans around zetakit's public functions, and the per-layer metrics.

While a `Tracer` is entered, each traced function is replaced at every module
binding (`zetakit.greedy.zeta_profile`, `zetakit.cheap_sets.remove_vertices`,
...) by a wrapper that records one span (name, start, end, parent) in memory.
Nothing inside zetakit changes; calls between modules resolve through those
bindings, so nested calls get nested spans.  A span's self time is its
duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

# layer (zetakit module) -> traced public functions
LAYERS = {
    "cli": ("parse",),
    "graph": ("build_graph", "smallest_last_order", "remove_vertices",
              "closed_neighborhood", "connected_components"),
    "degeneracy": ("zeta_profile", "cheap_vertices", "layer_decomposition"),
    "bounds": ("z_bound", "independent_cheap_set", "component_lambdas",
               "strong_bound_component", "strong_bound_grouped", "full_bound_report"),
    "cheap_sets": ("find_1_cheap", "find_2_cheap", "find_k_cheap_forest",
                   "verify_k_cheap", "cheap_weight"),
    "greedy": ("min_greedy", "cheap_greedy", "one_cheap_greedy", "two_cheap_greedy",
               "forest_k_greedy"),
    "oracle": ("exact_alpha_k", "is_in_family_F"),
}
# both parsers are one span name, cli.parse
_ALIASES = {("cli", "parse"): ("parse_edge_list", "parse_dimacs")}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            if layer == "greedy":
                out += [(f"{name}.rounds", "count"), (f"{name}.self_s", "s"),
                        (f"{name}.round_ms", "ms"), (f"{name}.rebuilds_per_round", "count"),
                        (f"{name}.profiles_per_round", "count")]
            else:
                out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += {"cli": [("cli.parse.mb_per_s", "MB/s")],
                "degeneracy": [("degeneracy.layers", "count")],
                "cheap_sets": [("cheap_sets.find_2_cheap.accept_ratio", "ratio")],
                "oracle": [("oracle.family_f.structural_ratio", "ratio"),
                           ("oracle.inconclusive", "count")]}.get(layer, [])
    return out + [("trace.overhead_ratio", "ratio")]


class Tracer:
    """Context manager that records spans of the traced functions of `lib`."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            i = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(i)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[i][1:3] = start, end
        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = getattr(self.lib, layer)
            for fn in fns:
                for attr in _ALIASES.get((layer, fn), (fn,)):
                    original = getattr(module, attr)
                    wrappers[id(original)] = self._wrap(f"{layer}.{fn}", original)
        for module in self.lib.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[list], runs, yardstick) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the workload's graphs.

    Span times are read on the yardstick's reference clock, like every other
    time the benchmark reports."""
    dur = [yardstick.reference_s(start / 1e9, end / 1e9) for _, start, end, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    in_greedy: Counter = Counter()       # (greedy, callee) -> calls made inside it
    greedy_of = [-1] * len(spans)        # enclosing greedy span, if any
    verified_in_f2 = 0
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        total_s[name] += dur[i]
        if name.startswith("greedy."):
            greedy_of[i] = i
        elif parent >= 0:
            greedy_of[i] = greedy_of[parent]
            if greedy_of[i] >= 0:
                in_greedy[spans[greedy_of[i]][0], name] += 1
            if name == "cheap_sets.verify_k_cheap" and spans[parent][0] == "cheap_sets.find_2_cheap":
                verified_in_f2 += 1

    rounds: Counter = Counter()
    for run in runs:
        rounds.update(run.rounds)
    parse_bytes = sum(len(run.item.text) for run in runs)
    family_calls = sum(run.family_calls for run in runs)

    out: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            if layer == "greedy":
                r = rounds[fn]
                out[f"{name}.rounds"] = r
                out[f"{name}.self_s"] = self_s[name]
                out[f"{name}.round_ms"] = total_s[name] * 1e3 / r if r else 0.0
                out[f"{name}.rebuilds_per_round"] = (
                    in_greedy[name, "graph.remove_vertices"] / r if r else 0.0)
                out[f"{name}.profiles_per_round"] = (
                    in_greedy[name, "degeneracy.zeta_profile"] / r if r else 0.0)
            else:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
    parse_s = total_s["cli.parse"]
    out["cli.parse.mb_per_s"] = parse_bytes / 1e6 / parse_s if parse_s else 0.0
    out["degeneracy.layers"] = sum(run.layers for run in runs)
    f2 = calls["cheap_sets.find_2_cheap"]
    out["cheap_sets.find_2_cheap.accept_ratio"] = f2 / verified_in_f2 if verified_in_f2 else 0.0
    out["oracle.family_f.structural_ratio"] = (
        sum(run.family_structural for run in runs) / family_calls if family_calls else 0.0)
    out["oracle.inconclusive"] = sum(run.refused for run in runs)
    return out


def write_spans(path, spans: list[list]) -> None:
    """Write spans as {"names": [...], "spans": [[name index, start ns, end ns, parent], ...]}."""
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "spans": [[index[name], start, end, parent] for name, start, end, parent in spans]},
                  fh, separators=(",", ":"))
