"""Structural graph operations: construction, deletion, cycles read off the
spanning forest (checked against the block decomposition of the tests'
conftest), contraction, pendant cores."""

import dataclasses
import gc
import itertools
import pickle
import random
from collections import deque

import pytest

from snlab import (Cycle, Graph, SignedGraph, complete_graph, connected_components,
                   contract_cycles, cycle_graph, cycle_space_dim,
                   cycles_pairwise_vertex_disjoint, delete_vertices, disjoint_union,
                   graph6_encode, induced_subgraph, is_connected, matching_number,
                   num_components, path_graph, pendant_vertices, star_graph,
                   vertices_on_cycles)
from snlab.errors import StructureError
from snlab.graphs import _cached, _forest_paths, fundamental_cycle, is_cycle_of
from snlab.matching import contraction_matched

from conftest import blocks, connected_graphs_upto


def theta_graph():
    """Two vertices joined by three paths of length 2: 4 vertices, 5 edges."""
    return Graph(4, frozenset([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))


class TestConstruction:
    def test_edges_normalized(self):
        g = Graph(3, frozenset([(2, 0), (1, 0)]))
        assert g.edges == frozenset([(0, 2), (0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset([(1, 1)]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset([(0, 2)]))

    def test_neighbors_sorted(self):
        g = star_graph(3)
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3 and g.degree(1) == 1

    def test_signed_graph_requires_total_sign_map(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            SignedGraph.with_signs(g, {(0, 1): 1})  # missing sign for (1,2)
        with pytest.raises(ValueError):
            SignedGraph.with_signs(g, {(0, 1): 1, (1, 2): 0})  # bad sign value

    def test_signed_graph_sign_lookup(self):
        sg = SignedGraph.with_negatives(path_graph(3), [(1, 2)])
        assert sg.sign(0, 1) == 1
        assert sg.sign(2, 1) == -1
        assert sg.negative_edges() == [(1, 2)]

    def test_sign_of_a_non_edge_raises_key_error(self):
        sg = SignedGraph.with_negatives(path_graph(3), [(1, 2)])
        with pytest.raises(KeyError):
            sg.sign(0, 2)
        with pytest.raises(KeyError):
            sg.sign(2, 0)

    def test_negatives_must_be_edges(self):
        with pytest.raises(ValueError):
            SignedGraph(path_graph(3), frozenset([(0, 2)]))
        with pytest.raises(ValueError):
            SignedGraph.with_negatives(path_graph(3), [(0, 2)])

    def test_negatives_stored_as_a_frozenset(self):
        sg = SignedGraph(path_graph(3), {(0, 1)})
        assert sg == SignedGraph.with_negatives(path_graph(3), [(1, 0)])
        assert hash(sg) == hash(SignedGraph(path_graph(3), frozenset([(0, 1)])))

    def test_cycle_canonical_rotation(self):
        assert Cycle((2, 3, 1)).vertices == (1, 2, 3)
        assert Cycle((3, 2, 1)).vertices == (1, 2, 3)
        # minimum vertex first, then its smaller cycle neighbor
        assert Cycle((4, 0, 3, 2)).vertices == (0, 3, 2, 4)
        assert Cycle((0, 4, 2, 3)).vertices == (0, 3, 2, 4)

    def test_cycle_rejects_short_or_repeated(self):
        with pytest.raises(ValueError):
            Cycle((0, 1))
        with pytest.raises(ValueError):
            Cycle((0, 1, 1))


class TestFromBits:
    """Pairs (0,1), (0,2), (1,2), (0,3), ... with the first pair as the most
    significant bit."""

    def test_known_values(self):
        assert Graph.from_bits(2, 0b1) == path_graph(2)
        assert Graph.from_bits(3, 0b101) == Graph(3, frozenset({(0, 1), (1, 2)}))
        assert Graph.from_bits(3, 0b011) == Graph(3, frozenset({(0, 2), (1, 2)}))
        assert Graph.from_bits(4, 0b000111) == Graph(
            4, frozenset({(0, 3), (1, 3), (2, 3)}))
        assert Graph.from_bits(4, 0b111111) == complete_graph(4)

    def test_trivial_graphs(self):
        assert Graph.from_bits(0, 0) == Graph(0)
        assert Graph.from_bits(1, 0) == Graph(1)

    def test_rejects_bits_outside_the_triangle(self):
        for n, bits in ((0, 1), (1, 1), (3, 8), (3, -1), (-1, 0)):
            with pytest.raises(ValueError):
                Graph.from_bits(n, bits)

    def test_graph6_order(self):
        # graph6_encode packs the same pairs in the same order, padded to 12
        for bits in range(1 << 10):
            data = bits << 2
            want = "D" + chr((data >> 6) + 63) + chr((data & 63) + 63)
            assert graph6_encode(Graph.from_bits(5, bits)) == want

    @staticmethod
    def pair_loop_graph6(g: Graph) -> str:
        """graph6 as the encoder computed it before ``Graph.bits``: one bit
        per edge, set at its pair's place counted from the top."""
        k = g.n * (g.n - 1) // 2
        data = 0
        for u, v in g.edges:
            data |= 1 << (k - 1 - (v * (v - 1) // 2 + u))
        pad = -k % 6
        data <<= pad
        size = (chr(g.n + 63) if g.n <= 62 else
                "~" + "".join(chr((g.n >> s & 63) + 63) for s in (12, 6, 0)))
        return size + "".join(chr((data >> s & 63) + 63)
                              for s in range(k + pad - 6, -1, -6))

    def test_bits_inverts_from_bits_and_keeps_graph6(self):
        """On every catalog graph with n <= 6, on seeded random labelled
        graphs, at n = 0 and 1, and at n = 70, where graph6 writes the
        size in four bytes. ``from_bits`` skips the constructor's checks,
        so its graphs are compared with, and hashed like, the graphs the
        constructor built."""
        rng = random.Random(24)
        graphs = [Graph(0), Graph(1), *connected_graphs_upto(6)]
        for n in (2, 5, 9, 13, 70):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(20):
                graphs.append(Graph(n, frozenset(
                    p for p in pairs if rng.random() < 0.4)))
        for g in graphs:
            assert 0 <= g.bits < 1 << g.n * (g.n - 1) // 2
            decoded = Graph.from_bits(g.n, g.bits)
            assert decoded == g and hash(decoded) == hash(g)
            assert graph6_encode(g) == self.pair_loop_graph6(g)
        assert graph6_encode(graphs[-1])[0] == "~"


class TestSubgraphs:
    def test_induced_path_endpoints(self):
        sub, relabel = induced_subgraph(path_graph(3), [0, 2])
        assert sub.n == 2 and not sub.edges
        assert relabel == {0: 0, 2: 1}

    def test_cycle_minus_vertex_is_path(self):
        for drop in range(4):
            sub, _ = delete_vertices(cycle_graph(4), [drop])
            assert sub.n == 3 and len(sub.edges) == 2
            assert cycle_space_dim(sub) == 0

    def test_induced_identity(self):
        g = complete_graph(4)
        sub, relabel = induced_subgraph(g, range(4))
        assert sub == g
        assert relabel == {v: v for v in range(4)}

    def test_star_minus_center(self):
        sub, _ = delete_vertices(star_graph(3), [0])
        assert sub.n == 3 and not sub.edges

    def test_signed_deletion_restricts_signs(self):
        sg = SignedGraph.with_negatives(cycle_graph(5), [(0, 1), (2, 3)])
        sub, relabel = delete_vertices(sg, [0])
        assert isinstance(sub, SignedGraph)
        assert sub.sign(relabel[2], relabel[3]) == -1
        assert sub.sign(relabel[1], relabel[2]) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), [0, 3])


class TestComponentsAndCycleSpace:
    def test_triangle_plus_edge(self):
        g = disjoint_union(cycle_graph(3), path_graph(2))
        assert num_components(g) == 2
        assert connected_components(g) == [(0, 1, 2), (3, 4)]

    def test_each_call_returns_a_fresh_list(self):
        g = disjoint_union(cycle_graph(3), path_graph(2))
        connected_components(g).append((9,))
        assert connected_components(g) == [(0, 1, 2), (3, 4)]
        assert num_components(g) == 2 and not is_connected(g)

    def test_empty_graph_components(self):
        assert num_components(Graph(4, frozenset())) == 4

    def test_connected_cycle(self):
        assert is_connected(cycle_graph(6))

    def test_cycle_space_values(self):
        assert cycle_space_dim(path_graph(7)) == 0
        assert cycle_space_dim(cycle_graph(6)) == 1
        assert cycle_space_dim(theta_graph()) == 2

    def test_cycle_space_matches_definition_exhaustive(self):
        for g in connected_graphs_upto(6):
            assert cycle_space_dim(g) == len(g.edges) - g.n + 1

    def test_forest_is_the_ascending_bfs(self):
        """``_forest`` equals a textbook BFS from each smallest unreached
        vertex over ascending neighbours, on random graphs with several
        components and isolated vertices."""
        rng = random.Random(20261019)
        for _ in range(300):
            n = rng.randrange(1, 30)
            pairs = list(itertools.combinations(range(n), 2))
            size = rng.randrange(len(pairs) // 4 + 1)
            g = Graph(n, frozenset(rng.sample(pairs, size)))
            parent, order = [-1] * n, []
            for root in range(n):
                if root in order:
                    continue
                queue = deque([root])
                order.append(root)
                while queue:
                    v = queue.popleft()
                    for w in sorted(w for e in g.edges if v in e for w in e if w != v):
                        if w not in order:
                            parent[w] = v
                            order.append(w)
                            queue.append(w)
            assert g._forest == (tuple(parent), tuple(order))

    def test_forest_paths_meet_at_the_lowest_common_ancestor(self):
        """``_forest_paths`` equals a plain reference, which walks both ends
        to the root and cuts at their lowest common ancestor: on the random
        graphs of ``test_forest_is_the_ascending_bfs``, for every cotree
        edge and for a random pair of vertices in each component."""
        rng, pick = random.Random(20261019), random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 30)
            pairs = list(itertools.combinations(range(n), 2))
            size = rng.randrange(len(pairs) // 4 + 1)
            g = Graph(n, frozenset(rng.sample(pairs, size)))
            parent = g._forest[0]

            def to_root(v):
                walk = [v]
                while parent[walk[-1]] != -1:
                    walk.append(parent[walk[-1]])
                return walk

            ends = list(g._cotree) + [(pick.choice(comp), pick.choice(comp))
                                      for comp in connected_components(g)]
            paths = list(_forest_paths(g, ends))
            assert len(paths) == len(ends)
            for (u, v), path in zip(ends, paths):
                up, down = to_root(u), to_root(v)
                while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
                    up.pop()
                    down.pop()
                assert path == up + down[:-1][::-1], (g, u, v)

    def test_fundamental_cycle_needs_a_non_forest_edge(self):
        """A forest edge, a non-edge and a pair across components close no
        fundamental cycle; the last used to climb past the root."""
        g = disjoint_union(cycle_graph(4), path_graph(2))
        assert fundamental_cycle(g, 3, 2) == Cycle((0, 1, 2, 3))
        for u, v in ((0, 1), (0, 2), (1, 4)):
            with pytest.raises(ValueError, match="non-forest edge"):
                fundamental_cycle(g, u, v)


class TestCachedState:
    """``Graph``'s derived state is cached by ``graphs._cached``, a
    lock-free stand-in for ``functools.cached_property``."""

    def test_computed_once_into_the_instance_dict(self):
        calls = []

        class Box:
            @_cached
            def value(self):
                """The boxed value."""
                calls.append(self)
                return [len(calls)]

        box = Box()
        first = box.value
        assert box.value is first and vars(box) == {"value": first}
        assert calls == [box] and Box().value == [2]
        g = path_graph(4)
        assert "_adj" not in vars(g)
        adj = g._adj
        assert vars(g)["_adj"] is adj and g._adj is adj

    def test_class_access_returns_the_descriptor(self):
        for name in ("_adj", "_forest", "_cotree", "pendant_core",
                     "_disjoint_cycles"):
            assert isinstance(vars(Graph)[name], _cached)
            assert getattr(Graph, name) is vars(Graph)[name]
        assert Graph.pendant_core.__doc__.startswith("What is left")

    def test_frozen_graph_rejects_assignment(self):
        g = cycle_graph(4)
        core = g.pendant_core
        for name in ("pendant_core", "_forest", "n"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, None)
        assert g.pendant_core is core and g.n == 4

    def test_pickled_graph_keeps_its_cached_entries(self):
        """A pickled graph carries its cached state: ``_cached`` keeps it
        in the instance dict, as ``functools.cached_property`` would."""
        g = Graph(7, cycle_graph(4).edges | {(3, 4), (4, 5), (5, 6)})
        cached = (g._adj, g._forest, g._cotree, g.pendant_core,
                  g._disjoint_cycles)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy is not g
        assert sorted(vars(copy)) == sorted(vars(g))
        assert (copy._adj, copy._forest, copy._cotree, copy.pendant_core,
                copy._disjoint_cycles) == cached


class TestBlocks:
    def test_path_blocks(self):
        bs = blocks(path_graph(4))
        assert len(bs) == 3
        assert all(len(b.edges) == 1 for b in bs)

    def test_cycle_single_block(self):
        bs = blocks(cycle_graph(5))
        assert len(bs) == 1
        assert bs[0].vertices == frozenset(range(5))

    def test_two_triangles_sharing_vertex(self):
        g = Graph(5, frozenset([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]))
        bs = blocks(g)
        assert len(bs) == 2
        assert all(len(b.edges) == 3 for b in bs)

    def test_blocks_partition_edges_exhaustive(self):
        for g in connected_graphs_upto(6):
            bs = blocks(g)
            seen = [e for b in bs for e in b.edges]
            assert sorted(seen) == g.sorted_edges()
            # block cycle dimensions sum to the whole graph's
            total = sum(len(b.edges) - len(b.vertices) + 1 for b in bs)
            assert total == cycle_space_dim(g)


class TestDisjointCycles:
    def test_theta_not_disjoint(self):
        ok, cycles = cycles_pairwise_vertex_disjoint(theta_graph())
        assert not ok and cycles is None

    def test_two_cycles_joined_by_path(self):
        # C3 on 0,1,2; path 2-3; C4 on 3,4,5,6
        g = Graph(7, frozenset([(0, 1), (0, 2), (1, 2), (2, 3),
                                (3, 4), (4, 5), (5, 6), (3, 6)]))
        ok, cycles = cycles_pairwise_vertex_disjoint(g)
        assert ok and len(cycles) == 2
        assert sorted(len(c) for c in cycles) == [3, 4]

    def test_tree_disjoint_trivially(self):
        ok, cycles = cycles_pairwise_vertex_disjoint(star_graph(4))
        assert ok and cycles == []

    def test_each_call_returns_a_fresh_list(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        _, first = cycles_pairwise_vertex_disjoint(g)
        first.clear()
        _, again = cycles_pairwise_vertex_disjoint(g)
        assert [len(c) for c in again] == [3, 4]

    def test_count_equals_dimension_when_disjoint(self):
        for g in connected_graphs_upto(6):
            ok, cycles = cycles_pairwise_vertex_disjoint(g)
            if ok:
                assert len(cycles) == cycle_space_dim(g)
                assert all(is_cycle_of(g, c) for c in cycles)
                covered = [v for c in cycles for v in c.vertices]
                assert len(covered) == len(set(covered))

    def test_bowtie_not_disjoint(self):
        bowtie = Graph(5, frozenset([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]))
        assert cycles_pairwise_vertex_disjoint(bowtie) == (False, None)

    def test_cycles_in_different_components(self):
        g = disjoint_union(path_graph(2),
                           disjoint_union(cycle_graph(5), cycle_graph(3)))
        ok, cycles = cycles_pairwise_vertex_disjoint(g)
        assert ok and cycles == [Cycle((2, 3, 4, 5, 6)), Cycle((7, 8, 9))]

    def test_matches_block_reference_on_all_labelled_graphs_upto_5(self):
        answers = {_assert_matches_blocks(Graph.from_bits(n, bits))
                   for n in range(6) for bits in range(1 << (n * (n - 1) // 2))}
        assert answers == {None, False, True}

    def test_matches_block_reference_on_connected_graphs_upto_7(self, graphs_upto_7):
        answers = {_assert_matches_blocks(g) for g in graphs_upto_7}
        assert answers == {None, False, True}

    def test_matches_block_reference_on_random_graphs(self):
        rng = random.Random(20261018)
        outcomes = {True: 0, False: 0}
        answers = set()
        for _ in range(2000):
            n = rng.randrange(8, 31)
            m = rng.randrange(n // 2, n + 5)
            edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)}
            g = Graph(n, frozenset(edges))
            answer = _assert_matches_blocks(g)
            answers.add(answer)
            outcomes[answer is not None and cycle_space_dim(g) > 0] += 1
        assert min(outcomes.values()) > 200  # both answers, with cycles
        assert answers == {None, False, True}

    def test_matches_block_reference_on_disjoint_cycle_graphs(self):
        """Graphs whose cycles are all vertex-disjoint, as in the hereditary
        catalogs, with both answers of the contraction test."""
        rng = random.Random(20261019)
        outcomes = {True: 0, False: 0}
        for _ in range(600):
            g, cycles = _disjoint_cycle_graph(rng)
            assert cycle_space_dim(g) == cycles
            outcomes[_assert_matches_blocks(g)] += 1
        assert min(outcomes.values()) >= 50

    def test_cycle_orders(self):
        """``cycles_pairwise_vertex_disjoint`` sorts the cycles by vertices,
        while ``Graph._disjoint_cycles[i]`` is the forest path closed by
        cotree edge ``i``, a vertex tuple from one end of the edge to the
        other; the two orders differ on some of these graphs."""
        rng = random.Random(20261019)
        differ = 0
        for _ in range(600):
            g, _ = _disjoint_cycle_graph(rng)
            ok, cycles = cycles_pairwise_vertex_disjoint(g)
            paths = g._disjoint_cycles
            by_cotree = [Cycle(path) for path in paths]
            assert ok and set(cycles) == set(by_cotree)
            assert [c.vertices for c in cycles] == sorted(c.vertices for c in cycles)
            assert len(by_cotree) == len(g._cotree)
            for e, path, cyc in zip(g._cotree, paths, by_cotree):
                assert type(path) is tuple and (path[0], path[-1]) == e
                assert e in cyc.edge_list()
            differ += cycles != by_cotree
        assert differ >= 100

    def test_adjacency_lists_ascend_on_random_graphs(self):
        """``Graph._adj``, built from one sort of the edges, lists each
        vertex's neighbours once each, ascending, on the random graphs of
        ``test_matches_block_reference_on_random_graphs``."""
        rng = random.Random(20261018)
        for _ in range(2000):
            n = rng.randrange(8, 31)
            m = rng.randrange(n // 2, n + 5)
            edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)}
            adj = Graph(n, frozenset(edges))._adj
            assert all(list(b) == sorted(set(b)) for b in adj)
            assert sum(map(len, adj)) == 2 * len(edges)
            assert {(v, w) for v, b in enumerate(adj) for w in b if v < w} == edges

    def test_adjacency_lists_are_untracked_bytes_up_to_256_vertices(self):
        """Up to 256 vertices each neighbour list is ``bytes``, which the
        garbage collector does not track, so the cached adjacency is one
        tracked object; beyond, tuples. ``neighbors`` is a tuple either
        way."""
        for n in (3, 256, 257):
            g = cycle_graph(n)
            kind = bytes if n <= 256 else tuple
            assert all(type(b) is kind for b in g._adj)
            if kind is bytes:
                assert not any(gc.is_tracked(b) for b in g._adj)
            assert g.neighbors(n - 1) == (0, n - 2)
            assert all(type(g.neighbors(v)) is tuple for v in range(n))

    def test_byte_and_tuple_adjacency_give_the_same_structure(self):
        """A random graph on 256 vertices (bytes) and the same edges with an
        isolated 257th vertex (tuples) have the same neighbour lists,
        forest, cotree, pendant core and matching number."""
        rng = random.Random(20261020)
        for _ in range(100):
            m = rng.randrange(200, 320)
            edges = frozenset(tuple(sorted(rng.sample(range(256), 2)))
                              for _ in range(m))
            small, big = Graph(256, edges), Graph(257, edges)
            assert [tuple(b) for b in small._adj] == list(big._adj[:256])
            assert small._forest[0] == big._forest[0][:256]
            assert small._cotree == big._cotree
            pos, k, isolated = small.pendant_core
            assert big.pendant_core == (pos + (-1,), k, isolated + 1)
            assert matching_number(small) == matching_number(big)


def _disjoint_cycle_graph(rng):
    """A random connected graph on 12 to 40 randomly labelled vertices
    whose cycles are 2 to 6 vertex-disjoint cycles, of lengths 3 to 6,
    each hung by one edge on a random vertex of a random tree:
    ``(graph, number of cycles)``."""
    lengths = [rng.randrange(3, 7) for _ in range(rng.randrange(2, 7))]
    n = rng.randrange(max(12, sum(lengths) + 1), 41)
    label = list(range(n))
    rng.shuffle(label)
    edges, start = set(), 0
    tree = label[sum(lengths):]
    for i in range(1, len(tree)):
        u, v = tree[i], tree[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for q in lengths:
        cyc = label[start:start + q]
        start += q
        edges |= {tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(q)}
        u, v = rng.choice(cyc), rng.choice(tree)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(edges)), len(lengths)


def _disjoint_cycles_by_blocks(g):
    """The slow reference: the cycle blocks' edge sets ordered by least
    vertex, or None when a block is neither an edge nor a cycle or two cycle
    blocks share a vertex."""
    cycle_blocks = [b for b in blocks(g) if len(b.edges) > 1]
    seen = set()
    for b in cycle_blocks:
        if len(b.edges) != len(b.vertices) or seen & b.vertices:
            return None
        seen |= b.vertices
    return [b.edges for b in sorted(cycle_blocks, key=lambda b: min(b.vertices))]


def _assert_matches_blocks(g):
    """Check the forest's cycle answers for ``g`` against the block
    reference, and ``contraction_matched`` against the matching numbers of
    the contraction tree and of that tree minus its cyclic vertices.
    Returns ``contraction_matched(g)``, or None when cycles share a
    vertex."""
    on_cycles = {v for b in blocks(g) if b.contains_cycle() for v in b.vertices}
    assert vertices_on_cycles(g) == on_cycles, g
    ok, cycles = cycles_pairwise_vertex_disjoint(g)
    expected = _disjoint_cycles_by_blocks(g)
    assert ok == (expected is not None), g
    if not ok:
        return None
    assert [frozenset(c.edge_list()) for c in cycles] == expected, g
    t = contract_cycles(g)
    offcycle, _ = delete_vertices(t.tree, t.cyclic_vertices)
    matched = contraction_matched(g)
    assert matched == (matching_number(t.tree) == matching_number(offcycle)), g
    return matched


class TestPendantCore:
    def test_pendant_vertices(self):
        assert pendant_vertices(star_graph(3)) == (1, 2, 3)
        assert pendant_vertices(cycle_graph(4)) == ()

    def test_paths(self):
        # P4 is two pendant pairs; P5 leaves its last vertex isolated
        assert path_graph(4).pendant_core == ((-1,) * 4, 0, 0)
        assert path_graph(5).pendant_core == ((-1,) * 5, 0, 1)

    def test_star(self):
        # one pair (a leaf and the centre), then the other leaves are isolated
        assert star_graph(4).pendant_core == ((-1,) * 5, 0, 3)

    def test_cycles_with_tails(self):
        # a triangle 0,1,2 with the tail 2-3-4: the tail goes, the triangle stays
        g = Graph(5, frozenset([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]))
        assert g.pendant_core == ((0, 1, 2, -1, -1), 3, 0)
        # a square 0,1,2,3 with the pendant 4 at 0: the square collapses to 1
        g = Graph(5, frozenset([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]))
        assert g.pendant_core == ((-1,) * 5, 0, 1)
        # a square with tails of lengths 2 and 4: the even tails go, the
        # square stays
        g = Graph(10, cycle_graph(4).edges | {(0, 4), (4, 5), (2, 6), (6, 7),
                                              (7, 8), (8, 9)})
        assert g.pendant_core == ((0, 1, 2, 3) + (-1,) * 6, 4, 0)
        # a hexagon with one-edge tails at 0 and 3 unravels completely
        g = Graph(8, cycle_graph(6).edges | {(0, 6), (3, 7)})
        assert g.pendant_core == ((-1,) * 8, 0, 0)

    def test_no_pendant_vertex(self):
        for g in (cycle_graph(5), complete_graph(4), theta_graph()):
            assert g.pendant_core == (tuple(range(g.n)), g.n, 0)

    def test_trivial_graphs(self):
        assert Graph(0).pendant_core == ((), 0, 0)
        assert Graph(1).pendant_core == ((-1,), 0, 1)
        assert Graph(3).pendant_core == ((-1,) * 3, 0, 3)

    def test_core_has_no_vertex_of_degree_below_two(self):
        for g in connected_graphs_upto(6):
            pos, k, isolated = g.pendant_core
            kept = [v for v in range(g.n) if pos[v] >= 0]
            assert [pos[v] for v in kept] == list(range(k))
            core, _ = induced_subgraph(g, kept)
            assert all(core.degree(v) >= 2 for v in range(k))
            # deleted vertices come in pendant pairs, plus the isolated ones
            assert (g.n - k - isolated) % 2 == 0


class TestContraction:
    def test_square_with_tail(self):
        # C4 on 0..3 plus path 0-4-5
        g = Graph(6, frozenset([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)]))
        t = contract_cycles(g)
        assert t.tree.n == 3 and len(t.tree.edges) == 2
        assert len(t.cyclic_vertices) == 1

    def test_bare_cycle(self):
        t = contract_cycles(cycle_graph(5))
        assert t.tree.n == 1 and t.cyclic_vertices == frozenset([0])

    def test_tree_identity(self):
        g = star_graph(3)
        t = contract_cycles(g)
        assert t.tree == g and not t.cyclic_vertices

    def test_theta_rejected(self):
        with pytest.raises(StructureError):
            contract_cycles(theta_graph())

    def test_contraction_check_counts_a_doubled_edge(self):
        """``contraction_matched`` counts the contracted edges with their
        multiplicity: given the triangle 0-1-2 as the only cycle, the edges
        0-3 and 1-3 both become 0-3, a cycle of length 2 in the contracted
        multigraph, which a set of its edges would hide."""
        g = Graph(4, cycle_graph(3).edges | {(0, 3), (1, 3)})
        vars(g)["_disjoint_cycles"] = ((0, 1, 2),)
        with pytest.raises(StructureError, match="acyclic"):
            contraction_matched(g)
        assert Graph(4, g.edges)._disjoint_cycles is None

    def test_vertex_count_shrinks_by_cycle_lengths(self):
        for g in connected_graphs_upto(7):
            ok, cycles = cycles_pairwise_vertex_disjoint(g)
            if not ok:
                continue
            t = contract_cycles(g)
            assert t.tree.n == g.n - sum(len(c) - 1 for c in cycles)
            assert cycle_space_dim(t.tree) == 0
            assert len(t.cyclic_vertices) == len(cycles)
            # origin covers everything exactly once
            orig = [v for o in t.origin
                    for v in (o.vertices if isinstance(o, Cycle) else (o,))]
            assert sorted(orig) == list(range(g.n))


class TestCycleSpaceDeletion:
    def test_deletion_drop_rules_exhaustive(self):
        """Deleting an off-cycle vertex keeps c; a cycle vertex drops it by
        at least 1; a vertex shared by two edge-disjoint cycles by at least 2.

        The edge-disjointness hypothesis in the third rule is necessary: in
        K_{2,3} a degree-2 vertex lies on two distinct 4-cycles, yet its
        deletion only drops c from 2 to 1, because the cycles overlap in the
        two edges at that vertex.
        """
        for g in connected_graphs_upto(6):
            on_cycle = vertices_on_cycles(g)
            for x in range(g.n):
                gx, _ = delete_vertices(g, [x])
                cg, cgx = cycle_space_dim(g), cycle_space_dim(gx)
                if x not in on_cycle:
                    assert cgx == cg
                else:
                    assert cgx <= cg - 1
                    if _on_two_edge_disjoint_cycles(g, x):
                        assert cgx <= cg - 2

    def test_distinct_overlapping_cycles_may_drop_one(self):
        """K_{2,3}: vertex 0 (degree 2) lies on two distinct cycles that share
        its two incident edges, and deleting it drops c by exactly 1."""
        g = Graph(5, frozenset({(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)}))
        assert cycle_space_dim(g) == 2
        assert not _on_two_edge_disjoint_cycles(g, 0)
        gx, _ = delete_vertices(g, [0])
        assert cycle_space_dim(gx) == 1


def _cycle_edge_sets_through(g, x):
    """All cycles through x, each as a frozenset of edges (brute force)."""
    found = []
    for size in range(3, g.n + 1):
        for vs in itertools.combinations(range(g.n), size):
            if x not in vs:
                continue
            rest = [v for v in vs if v != x]
            for perm in itertools.permutations(rest):
                walk = (x,) + perm
                if all(g.has_edge(walk[i], walk[(i + 1) % size])
                       for i in range(size)):
                    edges = frozenset(
                        tuple(sorted((walk[i], walk[(i + 1) % size])))
                        for i in range(size))
                    if edges not in found:
                        found.append(edges)
    return found


def _on_two_edge_disjoint_cycles(g, x):
    """Whether two edge-disjoint cycles both pass through x."""
    cycles = _cycle_edge_sets_through(g, x)
    return any(not (a & b)
               for i, a in enumerate(cycles) for b in cycles[i + 1:])
