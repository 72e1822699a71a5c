"""Certified greedy family: size vs certificate, traces, determinism."""

import gc
import hashlib
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rebuild_greedy
import zetakit
from conftest import (complete_graph, count_calls, count_fractions, count_strips, cycle_graph,
                      gnm, gnp, graphs, path_graph, random_forest, random_tree, star_graph)
from zetakit import cheap_sets
from zetakit.bounds import z_bound
from zetakit.cheap_sets import CheapSetSearchError
from zetakit.degeneracy import Residual, zeta_profile
from zetakit.graph import GraphInputError, build_graph, is_forest
from zetakit.greedy import (cheap_greedy, forest_k_greedy, min_greedy,
                            one_cheap_greedy, two_cheap_greedy)
from zetakit.oracle import layered_example_graph

ALGOS = [
    ("min", lambda g: min_greedy(g), 0),
    ("cheap", lambda g: cheap_greedy(g), 0),
    ("1cheap", lambda g: one_cheap_greedy(g), 1),
    ("2cheap", lambda g: two_cheap_greedy(g), 2),
]


def max_inner_degree(g, chosen):
    return max((len(g.adj[v] & chosen) for v in chosen), default=0)


@pytest.mark.parametrize("name,algo,level", ALGOS)
@given(g=graphs(max_n=24))
@settings(max_examples=120, deadline=None)
def test_run_contract(name, algo, level, g):
    run = algo(g)
    chosen = frozenset(run.chosen)
    assert run.level == level
    assert len(chosen) == len(run.chosen)
    assert max_inner_degree(g, chosen) <= level
    assert len(chosen) >= ceil(run.certificate)
    assert run.certificate >= z_bound(g, level + 1) if g.n else run.certificate == 0
    assert isinstance(run.certificate, Fraction)
    assert run.anomalies == () or run.anomalies == []


@pytest.mark.parametrize("name,algo,level", ALGOS)
@given(g=graphs(max_n=20))
@settings(max_examples=80, deadline=None)
def test_trace_bookkeeping(name, algo, level, g):
    run = algo(g)
    picked, removed = set(), set()
    for step in run.trace:
        assert step.contribution <= len(step.picked)
        assert not (set(step.picked) & picked)
        assert not (set(step.removed) & removed)
        picked |= set(step.picked)
        removed |= set(step.removed)
        assert set(step.picked) <= set(step.removed)
    assert picked == set(run.chosen)
    assert removed == set(range(g.n))
    assert sum((step.contribution for step in run.trace), Fraction(0)) \
        == run.certificate


@given(g=graphs(max_n=20))
@settings(max_examples=60, deadline=None)
def test_level0_certificates_reach_z1(g):
    if g.n == 0:
        return
    z1 = z_bound(g, 1)
    assert min_greedy(g).certificate >= z1
    assert cheap_greedy(g).certificate >= z1
    assert len(min_greedy(g).chosen) >= ceil(z1)
    assert len(cheap_greedy(g).chosen) >= ceil(z1)


@given(g=graphs(max_n=20))
@settings(max_examples=40, deadline=None)
def test_unseeded_runs_deterministic(g):
    for _, algo, _lvl in ALGOS:
        assert algo(g) == algo(g)


@given(g=graphs(max_n=20), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_seeded_min_greedy_reproducible(g, seed):
    assert min_greedy(g, seed=seed) == min_greedy(g, seed=seed)


def test_seed_changes_tie_breaks_somewhere():
    g = cycle_graph(9)
    outcomes = {frozenset(min_greedy(g, seed=s).chosen) for s in range(40)}
    assert len(outcomes) > 1


@pytest.mark.parametrize("k", range(1, 7))
def test_one_cheap_on_paths(k):
    run = one_cheap_greedy(path_graph(3 * k))
    assert len(run.chosen) == 2 * k
    assert z_bound(path_graph(3 * k), 2) == 2 * k
    assert run.certificate == 2 * k


def test_empty_and_isolated_graphs():
    empty = build_graph(0, [])
    for _, algo, _lvl in ALGOS:
        run = algo(empty)
        assert run.chosen == frozenset() and run.certificate == 0
    dust = build_graph(5, [])
    for _, algo, _lvl in ALGOS:
        run = algo(dust)
        assert set(run.chosen) == set(range(5))
        assert run.certificate == 5
        assert [s.kind for s in run.trace] == ["isolated-block"]


def test_cheap_greedy_trace_kinds():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    run = cheap_greedy(g)
    assert all(s.kind in ("grouped-lambda", "component-lambda", "isolated-block")
               for s in run.trace)
    lam_steps = [s for s in run.trace if s.kind in ("grouped-lambda",
                                                    "component-lambda")]
    for s in lam_steps:
        assert s.lam is not None and s.lam <= 1


def test_forest_greedy_contract():
    for seed in range(30):
        g = random_forest(20, seed)
        for k in range(0, 5):
            run = forest_k_greedy(g, k)
            assert run.level == k
            assert max_inner_degree(g, frozenset(run.chosen)) <= k
            assert run.certificate >= z_bound(g, k + 1)
            assert len(run.chosen) >= ceil(run.certificate)


def test_forest_greedy_rejects_cycles():
    with pytest.raises(GraphInputError):
        forest_k_greedy(cycle_graph(5), 1)


def test_forest_greedy_rejects_negative_level():
    # an edgeless graph never reaches the finder, so the greedy checks k itself
    for g in (build_graph(3, []), path_graph(2)):
        with pytest.raises(GraphInputError, match="level must be >= 0"):
            forest_k_greedy(g, -1)


# SHA-256 of the runs below.  The forest finder has no independent twin (the
# rebuild reference calls it too), so this digest holds its repair order and
# DP fallback fixed: a change to any run must say why and update it.
FOREST_RUNS_SHA256 = "4f2b49488cd3ae4505661ca03d790975e547c2608b44915ebb4c78fc2177d486"


def test_forest_greedy_runs_pinned(dedup_suite):
    forests = [g for n in range(1, 8) for g in dedup_suite[n] if is_forest(g)]
    forests += [random_forest(n, seed) for n, seed in ((100, 1), (300, 2), (800, 3))]
    forests += [random_tree(n, seed) for n, seed in ((200, 4), (800, 5))]
    h = hashlib.sha256()
    for g in forests:
        for k in range(5):
            run = forest_k_greedy(g, k)
            h.update(repr((sorted(run.chosen), run.certificate, run.level,
                           run.trace, run.anomalies)).encode())
    assert h.hexdigest() == FOREST_RUNS_SHA256


def test_min_greedy_on_clique_and_star():
    assert len(min_greedy(complete_graph(6)).chosen) == 1
    run = min_greedy(star_graph(8))
    # picking any leaf removes only {leaf, hub}; all leaves end up chosen
    assert len(run.chosen) == 8


def test_two_cheap_collects_anomalies_field():
    run = two_cheap_greedy(gnp(18, 0.25, 4))
    assert run.anomalies == () or list(run.anomalies) == []


# ── the residual rounds against the rebuild-per-round reference ─────────────

def assert_matches_rebuild_reference(g):
    assert min_greedy(g) == rebuild_greedy.min_greedy(g)
    assert min_greedy(g, seed=7) == rebuild_greedy.min_greedy(g, seed=7)
    assert cheap_greedy(g) == rebuild_greedy.cheap_greedy(g)
    assert one_cheap_greedy(g) == rebuild_greedy.one_cheap_greedy(g)
    assert two_cheap_greedy(g) == rebuild_greedy.two_cheap_greedy(g)
    if is_forest(g):
        for k in (0, 1, 2):
            assert forest_k_greedy(g, k) == rebuild_greedy.forest_k_greedy(g, k)


@given(g=graphs(max_n=24))
@settings(max_examples=80, deadline=None)
def test_greedies_match_rebuild_reference(g):
    assert_matches_rebuild_reference(g)


@given(n=st.integers(1, 40), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_greedies_match_rebuild_reference_on_forests(n, seed):
    assert_matches_rebuild_reference(random_forest(n, seed))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_greedies_match_rebuild_reference_on_layered_example(k):
    assert_matches_rebuild_reference(layered_example_graph(k))


def test_greedy_runs_neither_rebuild_nor_reprofile(monkeypatch):
    """One peel per Graph, kept on it: every greedy run on one Graph reads it,
    and none calls zeta_profile, remove_vertices, strong_bound_grouped or
    independent_cheap_set, counted at every module binding.  With the
    profile, the strip, the bound report and the family-F recognizer added,
    one Graph still makes one peel in all."""
    expected = {"remove_vertices": 0, "zeta_profile": 0, "_peel": 1,
                "strong_bound_grouped": 0, "independent_cheap_set": 0}
    calls = {}
    for name, module in (("remove_vertices", zetakit.graph),
                         ("zeta_profile", zetakit.degeneracy),
                         ("_peel", zetakit.degeneracy),
                         ("strong_bound_grouped", zetakit.bounds),
                         ("independent_cheap_set", zetakit.bounds)):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in (zetakit, zetakit.graph, zetakit.degeneracy, zetakit.bounds,
                    zetakit.cheap_sets, zetakit.greedy, zetakit.oracle):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    runs = [lambda g: min_greedy(g), lambda g: min_greedy(g, seed=1), cheap_greedy,
            one_cheap_greedy, two_cheap_greedy, lambda g: forest_k_greedy(g, 2)]
    for g in (gnp(60, 0.1, 3), layered_example_graph(3), random_forest(60, 5)):
        calls.update(dict.fromkeys(expected, 0))
        for run in runs[:5] if not is_forest(g) else runs:
            assert run(g).trace
        assert calls == expected
    # every reader of one Graph within the exact oracle's size guard, the greedies first
    # on one and last on the other
    readers = [zetakit.zeta_profile, zetakit.cheap_vertices, zetakit.layer_decomposition,
               zetakit.full_bound_report, zetakit.is_in_family_F]
    for g, order in ((gnp(36, 0.15, 3), runs[:5] + readers),
                     (random_forest(36, 5), readers + runs)):
        calls["_peel"] = 0
        for read in order:
            read(g)
        assert calls["_peel"] == 1


def test_min_greedy_scans_the_live_vertices_once_per_run(monkeypatch):
    """The picks come from a heap, not a scan: one Residual.vertices() call per run
    (the driver's first look for isolated vertices), whatever the number of rounds."""
    calls = []
    original = Residual.vertices

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Residual, "vertices", counted)
    for g in (gnp(200, 0.04, 1), gnp(400, 0.02, 2), cycle_graph(90)):
        for seed in (None, 5):
            calls.clear()
            run = min_greedy(g, seed=seed)
            assert len(run.trace) > 10
            assert len(calls) == 1


def test_cheap_greedies_neither_scan_nor_copy_per_round(monkeypatch):
    """The 1-cheap, 2-cheap and cheap_greedy rounds read the residual's kept cheap
    layers: a run iterates Residual.vertices() a fixed number of times (`_drive`'s
    first look for isolated vertices and the one build of the cheap set), however
    many rounds it has.  A 1- or 2-cheap run copies the residual once to keep the
    second cheap layer and verifies one candidate per round that is not an
    isolated block; a cheap_greedy run copies nothing and verifies nothing.  A
    cheap_greedy run that scanned the live graph each round took 8 vertices()
    calls on the G(n, p) and 1,001 on the path."""
    calls = {"vertices": 0, "copy": 0, "verify": 0}
    original, real_copy = Residual.vertices, Residual._copy
    real_verify = cheap_sets.verify_k_cheap

    def verify(*args):
        calls["verify"] += 1
        return real_verify(*args)

    def counted(self):
        calls["vertices"] += 1
        return original(self)

    def copy(self):
        calls["copy"] += 1
        return real_copy(self)

    monkeypatch.setattr(Residual, "vertices", counted)
    monkeypatch.setattr(Residual, "_copy", copy)
    monkeypatch.setattr(cheap_sets, "verify_k_cheap", verify)
    g = gnp(2000, 8 / 2000, 3)
    for run in (one_cheap_greedy, two_cheap_greedy):
        calls.update(vertices=0, copy=0, verify=0)
        trace = run(g).trace
        assert len(trace) > 200
        rounds = sum(step.kind != "isolated-block" for step in trace)
        assert calls == {"vertices": 2, "copy": 1, "verify": rounds}, run.__name__
    for h in (g, path_graph(4000)):
        calls.update(vertices=0, copy=0, verify=0)
        assert len(cheap_greedy(h).trace) > 6
        assert calls == {"vertices": 2, "copy": 0, "verify": 0}, h.n


def test_cheap_greedies_delete_few_vertices_per_run(monkeypatch):
    """Work counter: the vertices that one run deletes over every residual (its
    round deletes and the updates of its kept second layer, through
    Residual.delete) and strips below the second layer (the layers a strip
    moves past), per input vertex.  one_cheap_greedy strips nothing, so it
    stays within 3 per vertex on random trees and on G(n, 8/n).  two_cheap_greedy
    on random trees stays within a quarter of what it cost when every round past
    the first layer stripped that layer on the residual itself: 56.7, 116.6 and
    215.1 per vertex at n = 1000, 2000 and 4000."""
    deleted = []
    real_delete = Residual.delete

    def counted(self, s):
        s = set(s)
        deleted.append(len(s))
        return real_delete(self, s)

    monkeypatch.setattr(Residual, "delete", counted)
    stripped_layers = count_strips(monkeypatch)
    for n, stripped in ((1000, 56.7), (2000, 116.6), (4000, 215.1)):
        tree = random_tree(n, 1)
        for g, run, cap in ((tree, one_cheap_greedy, 3), (gnp(n, 8 / n, 1), one_cheap_greedy, 3),
                            (tree, two_cheap_greedy, stripped / 4)):
            deleted.clear()
            stripped_layers.clear()
            run(g)
            work = sum(deleted) + sum(size for _, size in stripped_layers)
            assert work <= cap * n, (run.__name__, n, work / n)
            assert bool(stripped_layers) == (run is two_cheap_greedy), run.__name__


def test_finder_rounds_weigh_their_set_once(monkeypatch):
    """A 1-cheap, 2-cheap or forest round banks the weight its finder verified:
    one call of the weight kernel `_weigh` per round that is not an isolated
    block, counted at every module binding."""
    calls = count_calls(monkeypatch, zetakit.degeneracy, "_weigh")
    g, forest = gnp(300, 8 / 300, 1), random_forest(300, 2)
    for graph, run in ((g, one_cheap_greedy), (g, two_cheap_greedy),
                       (layered_example_graph(3), two_cheap_greedy),
                       (forest, lambda f: forest_k_greedy(f, 2))):
        calls.clear()
        trace = run(graph).trace
        rounds = sum(step.kind != "isolated-block" for step in trace)
        assert rounds > 0 and len(calls) == rounds


def test_greedy_rounds_and_certificates_run_no_fraction_operator(monkeypatch, dedup_suite):
    """A greedy run builds one Fraction per banked step (in the driver for an
    isolated block or a min_greedy pick, else in the finder's verification or
    the cheap_greedy round, with its lambda) and one for the certificate, an
    integer sum over the lcm of the steps' denominators; no Fraction operator
    runs.  Constructions are counted at the modules' Fraction bindings,
    operators on the class."""
    suite = [g for n in range(1, 7) for g in dedup_suite[n]]
    suite += [random_forest(800, 2), gnp(300, 8 / 300, 1), layered_example_graph(3)]
    built, ops = count_fractions(monkeypatch)
    for g in suite:
        runs = [min_greedy, cheap_greedy, one_cheap_greedy, two_cheap_greedy]
        if is_forest(g):
            runs.append(lambda f: forest_k_greedy(f, 2))
        for run in runs:
            built.clear()
            trace = run(g).trace
            lams = sum(step.lam is not None for step in trace)
            assert (len(built), ops) == (len(trace) + lams + 1, []), g.adj


def test_finder_rounds_build_their_closed_neighborhood_once(monkeypatch):
    """A 1-cheap, 2-cheap or forest round deletes the N[S] that its finder's
    verification built, and min_greedy's unverified pick has it built once in
    the driver: one closed_neighborhood call per round that is not an isolated
    block, counted at every module binding."""
    calls = count_calls(monkeypatch, zetakit.graph, "closed_neighborhood")
    g, forest = gnp(300, 8 / 300, 1), random_forest(300, 2)
    for graph, run in ((g, min_greedy), (g, one_cheap_greedy), (g, two_cheap_greedy),
                       (layered_example_graph(3), two_cheap_greedy),
                       (forest, lambda f: forest_k_greedy(f, 2))):
        calls.clear()
        trace = run(graph).trace
        rounds = sum(step.kind != "isolated-block" for step in trace)
        assert rounds > 0 and len(calls) == rounds



def test_cheap_greedy_weighs_only_its_winner(monkeypatch):
    """A cheap_greedy round makes one call of the weight kernel `_weigh` per
    distinct lambda of S1's components when they win, and one for the grouped
    N[S] otherwise, counted at every module binding.  On a random forest the
    rounds walk hundreds of components, against a handful of distinct
    lambdas."""
    distinct, comps = [], []
    real_parts, real_components = zetakit.bounds._lambda_parts, zetakit.bounds._components

    def parts(r, s):
        got = real_parts(r, s)
        distinct.append(len(got[0]))
        return got

    def components(g, s):
        found = list(real_components(g, s))
        comps.append(len(found))
        return iter(found)

    monkeypatch.setattr(zetakit.greedy, "_lambda_parts", parts)
    monkeypatch.setattr(zetakit.bounds, "_components", components)
    sums = count_calls(monkeypatch, zetakit.degeneracy, "_weigh")
    kinds, walked = set(), []
    for g in (random_forest(800, 2), gnp(300, 8 / 300, 1)):
        distinct.clear()
        comps.clear()
        sums.clear()
        rounds = [step.kind for step in cheap_greedy(g).trace if step.kind != "isolated-block"]
        kinds.update(rounds)
        walked.append((sum(comps), sum(distinct)))
        assert len(distinct) == len(rounds)
        assert len(sums) == sum(d if kind == "component-lambda" else 1
                                for d, kind in zip(distinct, rounds))
    assert kinds == {"component-lambda", "grouped-lambda"}
    assert walked[0][0] > 250 and walked[0][1] < 10, walked


# each greedy, and the function of `zetakit.greedy` that its rounds call
ROUND_CALLS = [
    (min_greedy, "_weighed_neighborhood"),
    (cheap_greedy, "_greedy_mis"),
    (one_cheap_greedy, "find_1_cheap"),
    (two_cheap_greedy, "find_2_cheap"),
    (lambda g: forest_k_greedy(g, 1), "find_k_cheap_forest"),
]


@pytest.mark.parametrize("run,name", ROUND_CALLS)
def test_greedy_rounds_run_with_the_collector_paused(monkeypatch, run, name):
    """A greedy's rounds run with the cyclic collector paused, and the call
    leaves it as it found it, enabled or not, also when a round raises."""
    real = getattr(zetakit.greedy, name)
    seen, fail = [], []

    def wrapped(*args):
        seen.append(gc.isenabled())
        if fail:
            raise CheapSetSearchError("forced failure")
        return real(*args)

    monkeypatch.setattr(zetakit.greedy, name, wrapped)
    tree = random_tree(40, 1)
    enabled = gc.isenabled()
    try:
        for on in (True, False):
            if on:
                gc.enable()
            else:
                gc.disable()
            fail.clear()
            seen.clear()
            assert run(tree).trace
            assert seen and not any(seen)
            assert gc.isenabled() == on
            fail.append(1)
            with pytest.raises(CheapSetSearchError):
                run(tree)
            assert gc.isenabled() == on
    finally:
        if enabled:
            gc.enable()


def test_greedy_runs_leave_garbage_that_does_not_grow_with_n():
    """The only reference cycles a run makes are its kept cheap layers, each a
    few containers that hold the residuals' lists, which are single objects
    whatever n: no residual holds a neighbour set of its own.  So with the
    collector paused, the count that gc.collect() frees after one run of
    cheap_greedy, one_cheap_greedy or two_cheap_greedy is no larger at
    n = 4000 than at n = 1000, on random trees and on G(n, 8/n); with a
    neighbour set copied per residual it was 4,035 objects at n = 2000 for
    one_cheap_greedy and doubled with n."""
    enabled = gc.isenabled()
    try:
        for run in (cheap_greedy, one_cheap_greedy, two_cheap_greedy):
            freed = {}
            for n in (1000, 4000):
                for g in (random_tree(n, 1), gnm(n, 4 * n, 1)):
                    gc.collect()
                    gc.disable()
                    run(g)
                    freed.setdefault(n, []).append(gc.collect())
                    gc.enable()
            assert all(big <= small for small, big in zip(freed[1000], freed[4000])), \
                (run.__name__, freed)
    finally:
        if not enabled:
            gc.disable()


def test_greedy_calls_start_no_collection():
    """No collection starts during a greedy call: a run keeps O(n) live
    containers that each collection would traverse without freeing any.  The
    unpaused greedies started 18/3/8/8 collections on G(2000, 8/2000) and
    11/2/10/9/17 on a 2000-vertex tree.  A collection that the run's
    allocations make due starts at the first allocation after the call, so
    the hook counts only while `running` is set, and clearing it allocates
    nothing."""
    starts, running = [], [False]

    def hook(phase, info):
        if phase == "start" and running[0]:
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(hook)
    try:
        for g in (gnp(2000, 8 / 2000, 1), random_tree(2000, 1)):
            for run, name in ROUND_CALLS:
                if name == "find_k_cheap_forest" and not is_forest(g):
                    continue
                starts.clear()
                running[0] = True
                run(g)
                running[0] = False
                assert starts == [], name
    finally:
        running[0] = False
        gc.callbacks.remove(hook)
