"""One model-based state machine for a Residual and everything it keeps.

The machine drives one Residual of a small random graph through every
operation that changes or reads its kept state: deletes of live sets,
inserts of deleted vertices, asking for the cheap state C and the kept
second layer D, the layers' reads, and strips of r or of D's residual to a
drawn depth.  Its model is a plain rebuild: after every step the live graph
is rebuilt from the Graph without the deleted vertices, and its coreness,
supports, cheap layers and the answer of every read asked so far are
recomputed from scratch and compared with what the Residual keeps.
"""

from itertools import islice

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

import scan_finders
from conftest import graphs
from zetakit import degeneracy
from zetakit.degeneracy import Residual, cheap_layers, zeta_oracle
from zetakit.graph import remove_vertices

# the reads of the first layer C and of the second layer D
READS = (("C", "least_edge"), *(("C", k) for k in range(1, 5)),
         ("D", "least"), ("D", "least_pair"), ("D", "least_up"), ("D", "least_edge"))


def least_edge(nbrs, layer):
    return min(((u, min(nbrs[u] & layer)) for u in layer if nbrs[u] & layer), default=None)


class ResidualMachine(RuleBasedStateMachine):
    @initialize(g=graphs(max_n=12))
    def start(self, g):
        self.g, self.r, self.reads = g, Residual(g), set()
        prof, support = degeneracy._core(g)
        self.kept = prof, list(support)

    def rebuild(self):
        """The live graph's zeta, neighbour sets and cheap layers, on r's vertex ids."""
        sub = remove_vertices(self.g, {v for v in range(self.g.n) if not self.r.alive[v]})
        old = sub.old_of
        zeta = dict(zip(old, zeta_oracle(sub.graph)))
        nbrs = {v: {old[y] for y in sub.graph.adj[x]} for x, v in enumerate(old)}
        layers = [frozenset(old[x] for x in layer) for layer in scan_finders.rebuilt_layers(sub.graph)]
        return zeta, nbrs, layers

    def snapshot(self, r):
        return r.alive[:], r.deg[:], r.zeta[:], r.support[:], r.n, r.m

    # ── rules ────────────────────────────────────────────────────────────────

    @precondition(lambda self: self.r.n)
    @rule(data=st.data())
    def delete(self, data):
        live = sorted(self.r.vertices())
        self.r.delete(data.draw(st.sets(st.sampled_from(live), min_size=1, max_size=4)))

    @precondition(lambda self: self.r.n < self.g.n)
    @rule(data=st.data())
    def insert(self, data):
        r = self.r
        r.insert(data.draw(st.sampled_from([v for v in range(self.g.n) if not r.alive[v]])))

    @rule(second=st.booleans())
    def ask(self, second):
        state = self.r.cheap_state()
        if second:
            state.second()

    @rule(read=st.sampled_from(READS))
    def read(self, read):
        self.reads.add(read)
        self.answer(read)

    @rule(data=st.data())
    def strip(self, data):
        """A strip of r, or of D's residual as the 2-cheap finder reads it, to a
        drawn depth: the layers are the rebuild's, and neither residual moves."""
        r = self.r
        on_second = data.draw(st.booleans())
        x = r.cheap_state().second().r if on_second else r
        depth = data.draw(st.one_of(st.none(), st.integers(0, 3)))
        before = self.snapshot(r), self.snapshot(x)
        got = list(islice(cheap_layers(x), depth))
        assert (self.snapshot(r), self.snapshot(x)) == before
        layers = self.rebuild()[2][on_second:]
        assert got == layers[:depth]

    # ── the model ────────────────────────────────────────────────────────────

    def answer(self, read):
        layer, name = read
        state = self.r.cheap_state()
        if layer == "D":
            return getattr(state.second(), name)()
        return state.least_edge() if name == "least_edge" else state.least_hub(name)

    def scan(self, read, nbrs, c, d):
        layer, name = read
        if name == "least_edge":
            return least_edge(nbrs, c if layer == "C" else d)
        if name == "least":
            return min(d, default=None)
        if name == "least_pair":
            return min((p for p in d if len(nbrs[p] & c) >= 2), default=None)
        if name == "least_up":
            return min((u for u in c if len(nbrs[u] & d) >= 2), default=None)
        return min((v for v in nbrs if len(nbrs[v] & c) >= name), default=None)

    @invariant()
    def matches_the_rebuild(self):
        r = self.r
        zeta, nbrs, layers = self.rebuild()
        live = sorted(zeta)
        assert degeneracy._core(self.g) == self.kept
        assert list(r.vertices()) == live
        assert (r.n, r.m) == (len(live), sum(map(len, nbrs.values())) // 2)
        assert [r.zeta[v] for v in live] == [zeta[v] for v in live]
        assert [r.support[v] for v in live] == [sum(zeta[w] >= zeta[v] for w in nbrs[v])
                                                for v in live]
        state = r._cheap
        if state is None:
            return
        c, d = (layers + [frozenset()] * 2)[:2]
        assert state.cheap == c
        assert [state.count[v] for v in live] == [len(nbrs[v] & c) for v in live]
        assert state.isolated == sum(not nbrs[v] for v in live)
        second = state._second
        if second is not None:
            # D's counts hold at every moment, whether or not D is up to date
            assert [second.count[v] for v in live] == [len(nbrs[v] & second.cheap) for v in live]
        for read in sorted(self.reads, key=repr):
            assert self.answer(read) == self.scan(read, nbrs, c, d), read
        if state._second is not None:
            second = state.second()
            rest = {v: nbrs[v] - c for v in live if v not in c}
            sub = remove_vertices(self.g, {v for v in range(self.g.n) if v not in rest})
            zeta2 = dict(zip(sub.old_of, zeta_oracle(sub.graph)))
            assert second.cheap == d and list(second.r.vertices()) == sorted(rest)
            assert [second.r.zeta[v] for v in rest] == [zeta2[v] for v in rest]
            assert [second.r.support[v] for v in rest] == [
                sum(zeta2[w] >= zeta2[v] for w in rest[v]) for v in rest]
            assert [second.count[v] for v in live] == [len(nbrs[v] & d) for v in live]


ResidualMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=40,
                                             deadline=None)
TestResidualMachine = ResidualMachine.TestCase
