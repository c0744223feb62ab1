"""Matching tests: blossom vs brute force, counts, cycle matching families.

The blossom implementation is validated against the exhaustive recursion on
every connected graph up to 7 vertices, on the sparse 8-vertex catalog, and
on seeded random graphs; the brute force itself is validated against known
counts and an independent augmenting-path check.
"""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from snlab import (
    BRUTE_FORCE_EDGE_CAP,
    CapacityError,
    Graph,
    Matching,
    StructureError,
    brute_force_max_matching,
    complete_graph,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    enumerate_maximum_matchings,
    even_cycle_matching_equivalence,
    is_connected,
    matching_number,
    matching_sets,
    odd_cycle_matching_equivalence,
    path_graph,
    pendant_vertices,
    star_graph,
    unique_cycle,
)
from snlab.matching import _blossom_pairs

from conftest import connected_graphs_upto


def petersen_graph() -> Graph:
    edges = set()
    for i in range(5):
        edges.add((i, (i + 1) % 5))
        edges.add((i, i + 5))
        edges.add((5 + i, 5 + (i + 2) % 5))
    return Graph(10, frozenset(edges))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = frozenset(e for e in itertools.combinations(range(n), 2)
                      if rng.random() < p)
    return Graph(n, edges)


class TestMatchingDataclass:
    def test_sorted_storage(self):
        m = Matching(((2, 3), (0, 1)))
        assert m.edges == ((0, 1), (2, 3))
        assert m.size == 2

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Matching(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            Matching(((0, 0),))

    def test_covers(self):
        m = Matching(((0, 1),))
        assert m.covers(0) and m.covers(1) and not m.covers(2)


def blossom_number(g: Graph) -> int:
    """The blossom's matching number of the whole graph, pendant pairs and
    all, which ``matching_number`` leaves to the pendant core."""
    return sum(1 for v in _blossom_pairs(g._adj) if v != -1) // 2


class TestBlossomAgainstBruteForce:
    def test_exhaustive_upto_7(self, graphs_upto_7):
        for g in graphs_upto_7:
            size = brute_force_max_matching(g).size
            assert matching_number(g) == size
            assert blossom_number(g) == size

    def test_sparse_catalog_n8(self):
        count = 0
        for g in connected_graphs_upto(8, max_c=2):
            if g.n < 8:
                continue
            count += 1
            size = brute_force_max_matching(g).size
            assert matching_number(g) == size
            assert blossom_number(g) == size
        assert count > 100  # trees, unicyclic and bicyclic graphs on 8 vertices

    def test_seeded_random_graphs(self):
        rng = random.Random(20260814)
        checked = 0
        while checked < 60:
            n = rng.randrange(9, 14)
            g = random_graph(rng, n, rng.uniform(0.1, 0.45))
            if len(g.edges) > BRUTE_FORCE_EDGE_CAP:
                continue
            checked += 1
            size = brute_force_max_matching(g).size
            assert matching_number(g) == size
            assert blossom_number(g) == size

    def test_known_matching_numbers(self):
        assert matching_number(path_graph(4)) == 2
        assert matching_number(cycle_graph(7)) == 3
        assert matching_number(star_graph(5)) == 1
        assert matching_number(complete_graph(6)) == 3
        assert matching_number(petersen_graph()) == 5
        assert matching_number(Graph(3, frozenset())) == 0

    def test_blossom_needs_contraction(self):
        # Two triangles joined by a path: greedy alternating search without
        # blossom contraction underestimates this family.
        edges = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)}
        g = Graph(7, frozenset(edges))
        assert matching_number(g) == 3
        assert brute_force_max_matching(g).size == 3

    def test_pendant_core_route_equals_whole_graph_blossom(self):
        # a random graph on the first core_n vertices; each later vertex
        # hangs off an earlier one (growing pendant trees) or stays isolated
        rng = random.Random(20261018)
        kinds = collections.Counter()
        for _ in range(300):
            core_n = rng.randrange(0, 11)
            n = core_n + rng.randrange(1, 16)
            edges = {e for e in itertools.combinations(range(core_n), 2)
                     if rng.random() < 0.6}
            for v in range(core_n, n):
                if v and rng.random() < 0.85:
                    edges.add((rng.randrange(v), v))
            g = Graph(n, frozenset(edges))
            _, k, isolated = g.pendant_core
            kinds[k > 0, isolated > 0] += 1
            assert matching_number(g) == blossom_number(g)
        assert len(kinds) == 4 and min(kinds.values()) > 10


class TestCounting:
    def test_known_counts(self):
        assert len(enumerate_maximum_matchings(cycle_graph(4))) == 2
        assert len(enumerate_maximum_matchings(path_graph(3))) == 2
        assert len(enumerate_maximum_matchings(cycle_graph(6))) == 2
        assert len(enumerate_maximum_matchings(path_graph(4))) == 1
        assert len(enumerate_maximum_matchings(cycle_graph(3))) == 3
        assert len(enumerate_maximum_matchings(complete_graph(4))) == 3
        assert len(enumerate_maximum_matchings(star_graph(4))) == 4

    def test_petersen_perfect_matchings(self):
        assert len(enumerate_maximum_matchings(petersen_graph())) == 6

    def test_enumeration_consistency(self, graphs_upto_6):
        for g in graphs_upto_6:
            maxima = enumerate_maximum_matchings(g)
            assert maxima == sorted(maxima)
            assert len(set(maxima)) == len(maxima)
            target = matching_number(g)
            for edges in maxima:
                m = Matching(edges)  # validates disjointness
                assert m.size == target
                assert all(e in g.edges for e in edges)


def _has_augmenting_path(g: Graph, matched: frozenset) -> bool:
    """Brute-force Berge check: an alternating path between exposed ends."""
    exposed = [v for v in range(g.n)
               if not any(v in e for e in matched)]
    for length in range(1, g.n, 2):  # odd number of edges
        for vs in itertools.permutations(range(g.n), length + 1):
            if vs[0] > vs[-1]:  # each path once
                continue
            if vs[0] not in exposed or vs[-1] not in exposed:
                continue
            ok = True
            for i in range(length):
                e = tuple(sorted((vs[i], vs[i + 1])))
                if e not in g.edges or (e in matched) != (i % 2 == 1):
                    ok = False
                    break
            if ok:
                return True
    return False


class TestBergeCharacterization:
    def test_maximum_iff_no_augmenting_path(self):
        """A matching is maximum exactly when no augmenting path exists."""
        for g in connected_graphs_upto(5):
            target = matching_number(g)
            edge_list = g.sorted_edges()
            for k in range(len(edge_list) + 1):
                for combo in itertools.combinations(edge_list, k):
                    covered = [v for e in combo for v in e]
                    if len(set(covered)) != 2 * k:
                        continue
                    is_max = k == target
                    assert _has_augmenting_path(g, frozenset(combo)) != is_max


class TestVertexDeletionRules:
    def test_single_deletion_drops_at_most_one(self, graphs_upto_6):
        for g in graphs_upto_6:
            m = matching_number(g)
            for v in range(g.n):
                gv, _ = delete_vertices(g, [v])
                assert m - 1 <= matching_number(gv) <= m

    def test_pendant_and_quasi_pendant_deletion(self, graphs_upto_7):
        """Removing a pendant's neighbor, with or without the pendant itself,
        lowers the matching number by exactly one."""
        for g in graphs_upto_7:
            m = matching_number(g)
            for u in pendant_vertices(g):
                v = g.neighbors(u)[0]
                gv, _ = delete_vertices(g, [v])
                guv, _ = delete_vertices(g, [u, v])
                assert m == 1 + matching_number(gv)
                assert m == 1 + matching_number(guv)


class TestEvenCycleJoin:
    """Joining an even cycle to a connected graph by one edge adds the
    matching numbers."""

    @staticmethod
    def _join(q: int, h: Graph, y: int) -> Graph:
        base = disjoint_union(cycle_graph(q), h)
        return Graph(base.n, base.edges | {(0, q + y)})

    def test_exhaustive_small(self):
        for h in connected_graphs_upto(5):
            mh = matching_number(h)
            for q in (4, 6):
                for y in range(h.n):
                    g = self._join(q, h, y)
                    assert matching_number(g) == q // 2 + mh

    def test_seeded_random(self):
        rng = random.Random(4211)
        for _ in range(40):
            while True:
                h = random_graph(rng, rng.randrange(2, 8), 0.4)
                if is_connected(h):
                    break
            q = rng.choice((4, 6, 8))
            y = rng.randrange(h.n)
            g = self._join(q, h, y)
            assert matching_number(g) == q // 2 + matching_number(h)

    def test_odd_cycle_join_can_fail(self):
        # The even-length hypothesis matters: a triangle joined to a single
        # vertex gains a full extra edge over m(C3) + m(K1).
        g = self._join(3, Graph(1, frozenset()), 0)
        assert matching_number(g) == 2
        assert matching_number(cycle_graph(3)) + matching_number(
            Graph(1, frozenset())) == 1


class TestUniqueCycle:
    def test_square_with_tail(self):
        g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}))
        assert unique_cycle(g).vertices == (0, 1, 2, 3)

    def test_rejects_trees_and_bicyclic(self):
        with pytest.raises(StructureError):
            unique_cycle(path_graph(4))
        theta = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)}))
        with pytest.raises(StructureError):
            unique_cycle(theta)
        with pytest.raises(StructureError):
            unique_cycle(disjoint_union(cycle_graph(3), cycle_graph(3)))


class TestMatchingSets:
    def test_square_with_tail_counts(self):
        g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}))
        ms = matching_sets(g)
        assert ms.boundary_edges == frozenset({(0, 4)})
        # {01,23}, {03,12}, {04,12}, {04,23}
        assert ms.num_max == 4
        assert ms.num_max_offcycle == 1  # the empty matching of a point
        assert ms.num_meeting_boundary == 2
        assert ms.num_avoiding_boundary == 2

    def test_bare_even_cycle(self):
        ms = matching_sets(cycle_graph(6))
        assert ms.boundary_edges == frozenset()
        assert (ms.num_max, ms.num_max_offcycle) == (2, 1)
        assert ms.num_meeting_boundary == 0

    def test_split_is_partition(self, unicyclic_graphs_upto_9):
        for g in unicyclic_graphs_upto_9:
            ms = matching_sets(g)
            assert ms.num_meeting_boundary + ms.num_avoiding_boundary == ms.num_max
            assert ms.num_max >= 1 and ms.num_max_offcycle >= 1

    def test_even_cycle_avoiding_counts_double_offcycle(self,
                                                        unicyclic_graphs_upto_9):
        """With an even cycle and no maximum matching using a boundary edge,
        maximum matchings are exactly (cycle half) x (off-cycle maximum):
        the count equals twice the off-cycle count."""
        seen = 0
        for g in unicyclic_graphs_upto_9:
            if len(unique_cycle(g)) % 2 != 0:
                continue
            ms = matching_sets(g)
            if ms.num_meeting_boundary == 0:
                seen += 1
                assert ms.num_max == 2 * ms.num_max_offcycle
        assert seen >= 20  # bare even cycles and a few decorated ones

    def test_even_cycle_meeting_exceeds_double_under_split(
            self, unicyclic_graphs_upto_9):
        """When some maximum matching uses a boundary edge AND the matching
        number splits over the cycle, the count strictly exceeds twice the
        off-cycle count. The split hypothesis is necessary (see regression
        below)."""
        seen = 0
        for g in unicyclic_graphs_upto_9:
            cyc = unique_cycle(g)
            if len(cyc) % 2 != 0:
                continue
            ms = matching_sets(g)
            core, _ = delete_vertices(g, cyc.vertices)
            split = matching_number(g) == len(cyc) // 2 + matching_number(core)
            if ms.num_meeting_boundary > 0 and split:
                seen += 1
                assert ms.num_max > 2 * ms.num_max_offcycle
        assert seen > 50

    def test_meeting_without_split_regression(self):
        """Square with pendants at two adjacent cycle vertices: the unique
        maximum matching uses boundary edges, the matching number does not
        split over the cycle, and the count equals (not exceeds) twice half
        the off-cycle count."""
        g = Graph(6, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)}))
        ms = matching_sets(g)
        assert ms.num_max == 1
        assert ms.num_max_offcycle == 1
        assert ms.num_meeting_boundary == 1
        core, _ = delete_vertices(g, unique_cycle(g).vertices)
        assert matching_number(g) != 2 + matching_number(core)
        assert not ms.num_max > 2 * ms.num_max_offcycle


class TestCycleMatchingEquivalences:
    def test_even_equivalence_exhaustive(self, unicyclic_graphs_upto_9):
        for g in unicyclic_graphs_upto_9:
            if len(unique_cycle(g)) % 2 != 0:
                continue
            left, right = even_cycle_matching_equivalence(g)
            assert left == right

    def test_odd_equivalence_exhaustive(self, unicyclic_graphs_upto_9):
        for g in unicyclic_graphs_upto_9:
            if len(unique_cycle(g)) % 2 == 0:
                continue
            left, right = odd_cycle_matching_equivalence(g)
            assert left == right

    def test_parity_guards(self):
        with pytest.raises(StructureError):
            even_cycle_matching_equivalence(cycle_graph(5))
        with pytest.raises(StructureError):
            odd_cycle_matching_equivalence(cycle_graph(4))

    def test_known_cases(self):
        # bare even cycle: both sides hold
        assert even_cycle_matching_equivalence(cycle_graph(4)) == (True, True)
        # square with one tail: some maximum matching uses the tail edge,
        # so both sides fail
        g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}))
        assert even_cycle_matching_equivalence(g) == (False, False)
        # bare odd cycle: both sides hold
        assert odd_cycle_matching_equivalence(cycle_graph(5)) == (True, True)


class TestCapacity:
    def test_brute_force_capped(self):
        g = complete_graph(8)  # 28 edges
        assert len(g.edges) > BRUTE_FORCE_EDGE_CAP
        with pytest.raises(CapacityError):
            brute_force_max_matching(g)
        with pytest.raises(CapacityError):
            enumerate_maximum_matchings(g)
        # the blossom path has no such cap
        assert matching_number(g) == 4
