"""Balance, switching and canonical-signature tests.

Balance verdicts are cross-checked against a brute-force scan of every
cycle's sign; switching invariance of the spectrum is checked with the
exact characteristic polynomial.
"""

from __future__ import annotations

import itertools
import random

import pytest

from snlab import (
    Cycle,
    Graph,
    SignedGraph,
    canonical_signature,
    char_poly_exact,
    cotree_edges,
    cycle_graph,
    cycle_sign,
    cycle_space_dim,
    is_balanced,
    is_connected,
    nullity,
    path_graph,
    signed_adjacency,
    switch,
)
from snlab.balance import _forest_signing, _pattern
from conftest import connected_graphs_upto


def all_cycles(g: Graph):
    """Every cycle of ``g`` as a Cycle, brute force, each exactly once."""
    seen = set()
    for size in range(3, g.n + 1):
        for vs in itertools.combinations(range(g.n), size):
            for perm in itertools.permutations(vs[1:]):
                walk = (vs[0],) + perm
                if all(g.has_edge(walk[i], walk[(i + 1) % size])
                       for i in range(size)):
                    c = Cycle(walk)
                    if c.vertices not in seen:
                        seen.add(c.vertices)
                        yield c


def brute_force_balanced(sg: SignedGraph) -> bool:
    return all(cycle_sign(sg, c) == 1 for c in all_cycles(sg.graph))


class TestCycleSign:
    def test_examples(self):
        c4 = cycle_graph(4)
        cyc = Cycle((0, 1, 2, 3))
        assert cycle_sign(SignedGraph.all_positive(c4), cyc) == 1
        assert cycle_sign(SignedGraph.with_negatives(c4, [(0, 1)]), cyc) == -1
        assert cycle_sign(
            SignedGraph.with_negatives(c4, [(0, 1), (2, 3)]), cyc) == 1

    def test_rejects_non_cycles(self):
        sg = SignedGraph.all_positive(path_graph(4))
        with pytest.raises(ValueError):
            cycle_sign(sg, Cycle((0, 1, 2)))

    def test_invariant_under_switching(self, signed_upto_5):
        rng = random.Random(333)
        for sg in signed_upto_5:
            cycles = list(all_cycles(sg.graph))
            if not cycles:
                continue
            flip = [v for v in range(sg.n) if rng.random() < 0.5]
            switched = switch(sg, flip)
            for c in cycles:
                assert cycle_sign(sg, c) == cycle_sign(switched, c)


class TestSwitch:
    def test_identity_cases(self):
        sg = SignedGraph.with_negatives(cycle_graph(5), [(0, 1), (2, 3)])
        assert switch(sg, []) == sg
        # switching at every vertex flips nothing
        assert switch(sg, range(5)) == sg

    def test_involution(self):
        sg = SignedGraph.with_negatives(cycle_graph(5), [(1, 2)])
        assert switch(switch(sg, [0, 2]), [0, 2]) == sg

    def test_single_vertex(self):
        sg = SignedGraph.all_positive(path_graph(3))
        flipped = switch(sg, [1])
        assert flipped.sign(0, 1) == -1
        assert flipped.sign(1, 2) == -1

    def test_out_of_range(self):
        sg = SignedGraph.all_positive(path_graph(3))
        with pytest.raises(ValueError):
            switch(sg, [3])

    def test_constructors_agree(self, signed_upto_5):
        """The sign map, the negative set in either orientation and a
        double switch all rebuild the same object, with the same hash."""
        rng = random.Random(5)
        for sg in signed_upto_5:
            flip = [v for v in range(sg.n) if rng.random() < 0.5]
            same = (
                SignedGraph.with_signs(
                    sg.graph, {(v, u): s for u, v, s in sg.signed_edges}),
                SignedGraph.with_negatives(
                    sg.graph, [(v, u) for u, v in sg.negative_edges()]),
                switch(switch(sg, flip), flip),
            )
            for other in same:
                assert other == sg and hash(other) == hash(sg)

    def test_preserves_spectrum(self, signed_upto_5):
        rng = random.Random(77)
        for sg in signed_upto_5:
            flip = [v for v in range(sg.n) if rng.random() < 0.5]
            switched = switch(sg, flip)
            assert char_poly_exact(signed_adjacency(sg)) == \
                char_poly_exact(signed_adjacency(switched))


class TestSpanningForest:
    """The canonical BFS forest ``Graph._forest``, ``(parent, order)``, and
    the cotree edges read off it."""

    def test_path(self):
        assert path_graph(4)._forest == ((-1, 0, 1, 2), (0, 1, 2, 3))
        assert cotree_edges(path_graph(4)) == []

    def test_forest_size_and_cotree(self, graphs_upto_6):
        for g in graphs_upto_6:
            parent, order = g._forest
            assert sorted(order) == list(range(g.n))
            tree = sum(p != -1 for p in parent)
            assert tree + cycle_space_dim(g) == len(g.edges)
            assert len(cotree_edges(g)) == cycle_space_dim(g)

    def test_each_call_returns_fresh_containers(self):
        g = cycle_graph(5)
        cotree_edges(g).append((0, 4))
        assert g._forest == ((-1, 0, 1, 4, 0), (0, 1, 4, 2, 3))
        assert cotree_edges(g) == [(2, 3)]

    def test_deterministic(self):
        g = cycle_graph(5)
        assert g._forest == Graph(5, g.edges)._forest
        # BFS from 0 reaches 1 and 4 first, so the farthest edge is left over
        assert cotree_edges(g) == [(2, 3)]


class TestIsBalanced:
    def test_verdict_matches_brute_force(self, signed_upto_5):
        for sg in signed_upto_5:
            assert is_balanced(sg).balanced == brute_force_balanced(sg)

    def test_balanced_evidence(self, signed_upto_5):
        for sg in signed_upto_5:
            res = is_balanced(sg)
            if not res.balanced:
                continue
            assert res.negative_cycle is None
            assert res.switching is not None
            mu = res.switching
            assert all(m in (-1, 1) for m in mu)
            for u, v, s in sg.signed_edges:
                assert mu[u] * s * mu[v] == 1

    def test_unbalanced_evidence(self, signed_upto_5):
        for sg in signed_upto_5:
            res = is_balanced(sg)
            if res.balanced:
                continue
            assert res.switching is None
            assert res.negative_cycle is not None
            assert cycle_sign(sg, res.negative_cycle) == -1

    def test_forests_always_balanced(self):
        for g in connected_graphs_upto(6):
            if cycle_space_dim(g) == 0:
                for sg in (SignedGraph.all_positive(g),
                           SignedGraph.with_signs(
                               g, {e: -1 for e in g.edges})):
                    assert is_balanced(sg).balanced

    def test_known_cases(self):
        c5 = cycle_graph(5)
        assert is_balanced(SignedGraph.all_positive(c5)).balanced
        assert not is_balanced(SignedGraph.with_negatives(c5, [(0, 1)])).balanced
        # two negative edges on one cycle cancel
        assert is_balanced(
            SignedGraph.with_negatives(c5, [(0, 1), (1, 2)])).balanced


class TestCanonicalSignature:
    def test_idempotent(self, signed_upto_5):
        for sg in signed_upto_5:
            canon = canonical_signature(sg)
            assert canonical_signature(canon) == canon

    def test_all_positive_iff_balanced(self, signed_upto_5):
        for sg in signed_upto_5:
            canon = canonical_signature(sg)
            all_pos = all(s == 1 for _, _, s in canon.signed_edges)
            assert all_pos == is_balanced(sg).balanced

    def test_switching_class_invariant(self, signed_upto_5):
        rng = random.Random(4096)
        for sg in signed_upto_5:
            flip = [v for v in range(sg.n) if rng.random() < 0.5]
            assert canonical_signature(switch(sg, flip)) == canonical_signature(sg)

    def test_separates_classes_on_a_cycle(self):
        """On one underlying cycle the two switching classes are told apart."""
        c4 = cycle_graph(4)
        balanced = canonical_signature(SignedGraph.with_negatives(
            c4, [(0, 1), (1, 2)]))
        unbalanced = canonical_signature(SignedGraph.with_negatives(
            c4, [(0, 1)]))
        assert balanced == canonical_signature(SignedGraph.all_positive(c4))
        assert balanced != unbalanced

    def test_is_the_signature_switched_at_the_forest_signing(self):
        """Every signature of every connected graph with n <= 5, and seeded
        random graphs, some disconnected: the representative is the
        signature switched where the forest signing is -1, and keeps the
        pattern of its class."""
        sigs = []
        for g in connected_graphs_upto(5):
            edge_list = g.sorted_edges()
            sigs += [SignedGraph(g, frozenset(
                e for i, e in enumerate(edge_list) if bits >> i & 1))
                for bits in range(1 << len(edge_list))]
        assert len(sigs) == 3247
        rng = random.Random(2744)
        for _ in range(300):
            n = rng.randrange(1, 10)
            edges = frozenset(e for e in itertools.combinations(range(n), 2)
                              if rng.random() < 0.3)
            sigs.append(SignedGraph(Graph(n, edges), frozenset(
                e for e in edges if rng.random() < 0.5)))
        assert sum(not is_connected(sg.graph) for sg in sigs) > 100
        for sg in sigs:
            mu = _forest_signing(sg)
            canon = canonical_signature(sg)
            assert canon == switch(sg, [v for v in range(sg.n) if mu[v] == -1])
            assert _pattern(canon) == _pattern(sg)

    def test_exhaustive_class_equality(self):
        """Canonical signatures agree exactly when the signatures are
        switching-equivalent (checked by trying all switchings)."""
        for g in connected_graphs_upto(4):
            edge_list = g.sorted_edges()
            sigs = []
            for bits in range(1 << len(edge_list)):
                signs = {e: -1 if bits >> i & 1 else 1
                         for i, e in enumerate(edge_list)}
                sigs.append(SignedGraph.with_signs(g, signs))
            for a in sigs:
                classmates = {
                    switch(a, flip).signed_edges
                    for k in range(g.n + 1)
                    for flip in itertools.combinations(range(g.n), k)}
                for b in sigs:
                    equivalent = b.signed_edges in classmates
                    assert (canonical_signature(a) == canonical_signature(b)) \
                        == equivalent


class TestNullitySwitchingInvariance:
    def test_exhaustive(self, signed_upto_5):
        rng = random.Random(8128)
        for sg in signed_upto_5:
            flip = [v for v in range(sg.n) if rng.random() < 0.5]
            assert nullity(switch(sg, flip)) == nullity(sg)

    def test_random_larger(self):
        rng = random.Random(64)
        for _ in range(25):
            n = rng.randrange(6, 10)
            edges = frozenset(e for e in itertools.combinations(range(n), 2)
                              if rng.random() < 0.35)
            g = Graph(n, edges)
            signs = {e: rng.choice((1, -1)) for e in g.edges}
            sg = SignedGraph.with_signs(g, signs)
            flip = [v for v in range(n) if rng.random() < 0.5]
            assert nullity(switch(sg, flip)) == nullity(sg)
            assert is_balanced(switch(sg, flip)).balanced == is_balanced(sg).balanced
