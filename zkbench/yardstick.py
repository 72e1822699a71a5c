"""A speed yardstick: a fixed kernel of the benchmark's own, timed all through a pass.

The small shared hosts this benchmark runs on change speed by up to a factor
of two within seconds (CPU time moves with wall time, so it is not stolen
time but slower execution), which moves every wall-clock median by more than
any bound worth having.  So while a pass runs, a fixed pure-Python kernel of
the same kind of work as zetakit's (adjacency sets, a bucketed smallest-last
peel, a sum of Fractions) is timed every PROBE_EVERY_S: from a SIGALRM
handler, which runs in the one thread between bytecodes, so long zetakit calls
are probed in their midst too.  The probes define a reference clock that
stands still while a probe runs and between two probes advances at
NOMINAL_S over their mean kernel time per wall second.  Every time the
benchmark reports is read on that clock, in reference seconds.  A program that
gets slower reads slower by the same share, because the kernel is the
benchmark's own and does not change with zetakit.
"""
from __future__ import annotations

import gc
import random
import signal
from bisect import bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from time import perf_counter

# the kernel's time at reference speed: near its median on the 2-vCPU Xeon VM
# the benchmark was tuned on, where single probes ranged from 2.2 to 7.5 ms
NOMINAL_S = 0.004
PROBE_EVERY_S = 0.05
KERNEL_N = 750
KERNEL_M = 3000
FRACTION_TERMS = 80


def _kernel_edges() -> list[tuple[int, int]]:
    rng = random.Random("zkbench/yardstick")
    edges: set[tuple[int, int]] = set()
    while len(edges) < KERNEL_M:
        u, v = rng.randrange(KERNEL_N), rng.randrange(KERNEL_N)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


class Yardstick:
    """Probes the host's speed and reads wall times on the reference clock.

    Use as `with yardstick: ...` around the timed work; reference_s() is valid
    for intervals inside the block once it has been left."""

    def __init__(self, warmup: int = 20):
        self.edges = _kernel_edges()
        for _ in range(warmup):
            self.kernel()
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.clock: list[float] = []
        self._armed = False

    def kernel(self) -> Fraction:
        adj: list[set[int]] = [set() for _ in range(KERNEL_N)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        deg = [len(a) for a in adj]
        buckets: list[list[int]] = [[] for _ in range(max(deg) + 1)]
        for v, d in enumerate(deg):
            buckets[d].append(v)
        for b in buckets:
            heapify(b)
        gone = [False] * KERNEL_N
        resid = []
        d = 0
        for _ in range(KERNEL_N):
            d = max(d - 1, 0)
            while True:
                b = buckets[d]
                while b and (gone[b[0]] or deg[b[0]] != d):
                    heappop(b)
                if b:
                    break
                d += 1
            v = heappop(buckets[d])
            gone[v] = True
            resid.append(d)
            for u in adj[v]:
                if not gone[u]:
                    deg[u] -= 1
                    heappush(buckets[deg[u]], u)
        return sum((Fraction(1, r + 1) for r in resid[:FRACTION_TERMS]), Fraction(0))

    def _probe(self) -> None:
        # The kernel frees all it allocates, which leaves the collector's
        # counts as they were, so with collection off during the probe it
        # neither runs a collection of zetakit's objects nor moves the next one.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        if collecting:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self._probe()
        # one-shot and re-armed here, so that probes never nest
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def __enter__(self) -> "Yardstick":
        self.starts, self.durations, self.clock = [], [], []
        self._probe()
        self._armed = True
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._probe()
        # reference time at the start of each probe
        self.clock = [0.0]
        for i in range(1, len(self.starts)):
            gap = self.starts[i] - self.starts[i - 1] - self.durations[i - 1]
            self.clock.append(self.clock[-1] + gap * self._rate(i - 1))

    def _rate(self, i: int) -> float:
        """Reference seconds per wall second between probes i and i + 1."""
        return 2 * NOMINAL_S / (self.durations[i] + self.durations[i + 1])

    def at(self, t: float) -> float:
        """Reading of the reference clock at wall time t."""
        i = bisect_right(self.starts, t) - 1
        if i < 0 or i >= len(self.starts) - 1:
            raise ValueError("time outside the probed block")
        return self.clock[i] + max(t - self.starts[i] - self.durations[i], 0.0) * self._rate(i)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]."""
        return self.at(t1) - self.at(t0)

    def speed(self) -> float:
        """Median kernel time over NOMINAL_S in the last block (1 = reference speed)."""
        ds = sorted(self.durations)
        return ds[len(ds) // 2] / NOMINAL_S if ds else float("nan")
