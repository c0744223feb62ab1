"""Enumeration tests: catalogs vs orbit counting, signature coverage.

The pruned canonical search is checked against the exhaustive search it
replaced, kept here as the reference. The catalog sizes are cross-checked
by an independent brute force that walks every labeled graph and counts
isomorphism classes via the canonical form of each, and against OEIS
counts; signature enumeration is checked to hit every switching class
exactly once by comparing canonical signatures of all 2^|E| labeled
signatures. The automorphism generators are checked against a brute force
over all vertex permutations.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import snlab.generation
from conftest import complete_bipartite, cube, petersen
from snlab import (
    CAPACITY_OVERRIDE_ENV,
    ENUMERATION_VERTEX_CAP,
    CapacityError,
    Graph,
    SignedGraph,
    automorphism_generators,
    canonical_form,
    canonical_signature,
    complete_graph,
    cycle_graph,
    cycle_space_dim,
    disjoint_union,
    effective_vertex_cap,
    enumerate_connected,
    enumerate_signatures,
    graph6_encode,
    is_balanced,
    is_connected,
    path_graph,
    star_graph,
)


def reference_form(g: Graph) -> tuple[int, int]:
    """The exhaustive search that ``canonical_form`` prunes: the least
    adjacency bitstring over every relabeling that keeps the refinement
    blocks in place, the blocks taken in color order."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
                for v in range(g.n)]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if new == colors:
            break
        colors = new
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colors[v], []).append(v)
    blocks = [tuple(classes[c]) for c in sorted(classes)]
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    def all_orders(i: int, acc: tuple[int, ...]):
        if i == len(blocks):
            yield acc
            return
        for perm in itertools.permutations(blocks[i]):
            yield from all_orders(i + 1, acc + perm)

    def bits_of(order: tuple[int, ...]) -> int:
        bits = 0
        for j in range(1, g.n):
            oj = order[j]
            for i in range(j):
                bits = (bits << 1) | ((masks[order[i]] >> oj) & 1)
        return bits

    return g.n, min(map(bits_of, all_orders(0, ())))


def augmentation_children(n_max: int):
    """Every graph the catalog build searches for n <= n_max."""
    for n in range(2, n_max + 1):
        for parent in enumerate_connected(n - 1):
            for size in range(1, n):
                for nbrs in itertools.combinations(range(n - 1), size):
                    yield Graph(n, parent.edges | {(v, n - 1) for v in nbrs})


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def labeled_connected_class_count(n: int) -> int:
    """Isomorphism classes among all labeled connected graphs, counted
    independently of the augmentation catalog."""
    pairs = list(itertools.combinations(range(n), 2))
    keys = set()
    for bits in range(1 << len(pairs)):
        g = Graph(n, frozenset(e for i, e in enumerate(pairs)
                               if (bits >> i) & 1))
        if is_connected(g):
            keys.add(canonical_form(g))
    return len(keys)


class TestCanonicalForm:
    def test_isomorphic_relabelings_collapse(self):
        g = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)}))
        base = canonical_form(g)
        for perm in itertools.permutations(range(5)):
            relabeled = Graph(5, frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in g.edges))
            assert canonical_form(relabeled) == base
            assert Graph.from_bits(*canonical_form(relabeled)) == \
                Graph.from_bits(*canonical_form(g))

    def test_distinguishes_non_isomorphic(self):
        assert canonical_form(path_graph(4)) != canonical_form(
            Graph(4, frozenset({(0, 1), (0, 2), (0, 3)})))
        assert canonical_form(cycle_graph(6)) != canonical_form(
            Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})))

    def test_canonical_graph_is_fixed_point(self, graphs_upto_6):
        for g in graphs_upto_6:
            cg = Graph.from_bits(*canonical_form(g))
            assert Graph.from_bits(*canonical_form(cg)) == cg
            assert canonical_form(cg) == canonical_form(g)


class TestPrunedSearch:
    """The pruned search returns the exhaustive search's form."""

    def test_every_augmentation_child_upto_7(self):
        count = 0
        for g in augmentation_children(7):
            assert canonical_form(g) == reference_form(g), sorted(g.edges)
            count += 1
        assert count == 7815

    def test_random_graphs_on_8_vertices(self):
        rng = random.Random(8)
        pairs = list(itertools.combinations(range(8), 2))
        for _ in range(200):
            p = rng.random()
            g = Graph(8, frozenset(e for e in pairs if rng.random() < p))
            assert canonical_form(g) == reference_form(g), sorted(g.edges)

    def test_symmetric_graphs(self):
        for g in (star_graph(7), complete_graph(8), complete_bipartite(4, 4),
                  cube(), cycle_graph(8)):
            assert canonical_form(g) == reference_form(g), sorted(g.edges)

    def test_symmetric_graphs_past_the_reference(self):
        """The exhaustive search needs over 2 s for K9 alone; every
        relabeling must give one form, and its graph is a fixed point."""
        rng = random.Random(12)
        start = time.perf_counter()
        for g in (star_graph(11), complete_graph(10), complete_bipartite(5, 5),
                  petersen(), cycle_graph(12)):
            forms = {canonical_form(relabeled(g, rng)) for _ in range(3)}
            assert forms == {canonical_form(g)}
            cg = Graph.from_bits(*canonical_form(g))
            assert Graph.from_bits(*canonical_form(cg)) == cg
        assert time.perf_counter() - start < 2.0


def group_order(gens: tuple[tuple[int, ...], ...], n: int) -> int:
    """The order of the group the permutations generate, by closure."""
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        a = todo.pop()
        for p in gens:
            b = tuple(p[v] for v in a)
            if b not in group:
                group.add(b)
                todo.append(b)
    return len(group)


def brute_force_order(g: Graph) -> int:
    """The number of vertex permutations that map edges to edges."""
    return sum(all((min(p[u], p[v]), max(p[u], p[v])) in g.edges
                   for u, v in g.edges)
               for p in itertools.permutations(range(g.n)))


class TestAutomorphismGroup:
    """The generators against a brute force over all permutations."""

    @staticmethod
    def assert_group(g: Graph, order: int) -> None:
        gens = automorphism_generators(g)
        assert len(gens) <= max(g.n - 1, 0)
        for p in gens:
            assert sorted(p) == list(range(g.n))
            assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == g.edges
        assert group_order(gens, g.n) == order

    def test_every_connected_graph_upto_6(self, graphs_upto_6):
        rng = random.Random(6)
        for g in graphs_upto_6:
            order = brute_force_order(g)
            self.assert_group(g, order)
            self.assert_group(relabeled(g, rng), order)

    def test_disconnected_graphs(self):
        rng = random.Random(7)
        k4 = complete_graph(4)
        for g in (Graph(5), disjoint_union(cycle_graph(3), cycle_graph(3)),
                  disjoint_union(path_graph(3), Graph(2, frozenset({(0, 1)}))),
                  disjoint_union(star_graph(3), Graph(2)),
                  disjoint_union(k4, k4)):
            order = brute_force_order(g)
            self.assert_group(g, order)
            self.assert_group(relabeled(g, rng), order)

    def test_known_orders(self):
        rng = random.Random(9)
        for g, order in ((cube(), 48), (petersen(), 120),
                         (complete_bipartite(4, 4), 1152),
                         (complete_graph(8), 40320)):
            self.assert_group(g, order)
            self.assert_group(relabeled(g, rng), order)

    def test_complete_graph_gets_transpositions(self):
        gens = automorphism_generators(complete_graph(6))
        assert len(gens) == 5
        assert all(sum(p[v] != v for v in range(6)) == 2 for p in gens)


class TestConnectedCatalog:
    def test_canonical_forms_once_per_child_orbit(self, monkeypatch):
        """Children whose neighbour sets share an orbit of the parent's
        group are isomorphic, so one child per orbit is visited (388 for
        n <= 6, against 759 children), and a visited child whose new vertex
        is outranked by a non-cut vertex is skipped, so 144 forms are
        computed for the 143 graphs. Each level is rebuilt through the
        uncached function, with the cached levels below as parents."""
        catalog = snlab.generation._connected_catalog
        levels = [catalog(n, None) for n in range(1, 7)]
        calls = []
        real = snlab.generation._canonical_form

        def counting(masks):
            calls.append(masks)
            return real(masks)

        monkeypatch.setattr(snlab.generation, "_canonical_form", counting)
        for n, level in enumerate(levels, 1):
            assert catalog.__wrapped__(n, None) == level
        assert len(calls) == 144 >= sum(map(len, levels)) == 143

    def test_capped_catalogs_are_the_full_catalog_filtered(self):
        """The filter keeps a child built from the parent left by deleting a
        non-cut vertex of greatest key; that deletion never raises the
        cycle-space dimension, so each capped catalog is complete."""
        catalog = snlab.generation._connected_catalog
        for n in range(1, 8):
            full = catalog(n, None)
            for max_c in range(4):
                assert catalog.__wrapped__(n, max_c) == tuple(
                    form for form in full
                    if cycle_space_dim(Graph.from_bits(*form)) <= max_c)

    def test_catalog_keeps_forms_and_each_call_builds_new_graphs(self):
        """The cache holds ``(n, bits)`` integer pairs, and each call of
        ``enumerate_connected`` builds its graphs from them anew: equal
        graphs in the same order, none shared with another call."""
        for n in range(1, 7):
            forms = snlab.generation._connected_catalog(n, None)
            assert all(type(n_) is type(bits) is int for n_, bits in forms)
            a, b = list(enumerate_connected(n)), list(enumerate_connected(n))
            assert a == b == [Graph.from_bits(*form) for form in forms]
            assert not {id(g) for g in a} & {id(g) for g in b}

    def test_counts_match_orbit_counting(self):
        for n in range(1, 6):
            assert len(list(enumerate_connected(n))) == \
                labeled_connected_class_count(n)

    def test_known_class_counts(self):
        counts = [len(list(enumerate_connected(n))) for n in range(1, 8)]
        assert counts == [1, 1, 2, 6, 21, 112, 853]

    def test_n8_catalog_pinned(self):
        """11,117 graphs (OEIS A001349); the digest of their graph6 lines
        pins the forms and their order."""
        catalog = list(enumerate_connected(8))
        assert len(catalog) == 11117
        lines = "".join(graph6_encode(g) + "\n" for g in catalog)
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "0531b819bb156b65c84cfa12d7ac82b1bdc4938ff3def49cc306960a51829f5b")

    def test_sparse_counts_past_the_cap(self):
        """Trees (OEIS A000055) and unicyclic graphs (A001429)."""
        for n, trees, unicyclic in ((9, 47, 240), (10, 106, 657)):
            dims = [cycle_space_dim(g)
                    for g in enumerate_connected(n, max_c=1, cap=10)]
            assert (dims.count(0), dims.count(1)) == (trees, unicyclic)

    def test_pairwise_non_isomorphic(self):
        for n in range(1, 7):
            forms = [canonical_form(g) for g in enumerate_connected(n)]
            assert len(set(forms)) == len(forms)

    def test_canonical_and_in_increasing_form_order(self):
        for n in range(1, 7):
            catalog = list(enumerate_connected(n))
            assert all(Graph.from_bits(*canonical_form(g)) == g for g in catalog)
            forms = [canonical_form(g) for g in catalog]
            assert all(a < b for a, b in zip(forms, forms[1:]))

    def test_all_connected_right_order(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                assert g.n == n
                assert is_connected(g)

    def test_deterministic_order(self):
        a = list(enumerate_connected(6))
        b = list(enumerate_connected(6))
        assert a == b

    def test_dimension_filter(self):
        for n in range(1, 7):
            full = [g for g in enumerate_connected(n)
                    if cycle_space_dim(g) <= 2]
            capped = list(enumerate_connected(n, max_c=2))
            assert full == capped

    def test_unicyclic_filter(self):
        """``max_c=1`` keeps the trees and the unicyclic graphs, which have
        ``n`` edges."""
        counts = [[len(g.edges) == n for g in enumerate_connected(n, max_c=1, cap=9)]
                  for n in range(3, 10)]
        assert [c.count(False) for c in counts] == [1, 2, 3, 6, 11, 23, 47]
        assert [c.count(True) for c in counts] == [1, 2, 5, 13, 33, 89, 240]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(0))
        with pytest.raises(CapacityError):
            list(enumerate_connected(ENUMERATION_VERTEX_CAP + 1))

    def test_rejects_negative_max_c(self):
        for n in (1, 4):
            with pytest.raises(ValueError):
                list(enumerate_connected(n, max_c=-1))

    def test_explicit_cap_param(self):
        got = [g.n for g in enumerate_connected(9, max_c=1, cap=9)]
        assert got and all(n == 9 for n in got)


class TestCapacityOverride:
    def test_env_override_read(self):
        env = dict(os.environ)
        env[CAPACITY_OVERRIDE_ENV] = "9"
        code = ("from snlab import effective_vertex_cap, enumerate_connected;"
                "assert effective_vertex_cap() == 9;"
                "assert sum(1 for _ in enumerate_connected(9, max_c=0)) == 47")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_default_cap(self):
        if CAPACITY_OVERRIDE_ENV not in os.environ:
            assert effective_vertex_cap() == ENUMERATION_VERTEX_CAP

    def test_invalid_override(self):
        env = dict(os.environ)
        env[CAPACITY_OVERRIDE_ENV] = "banana"
        code = ("from snlab import effective_vertex_cap\n"
                "from snlab import CapacityError\n"
                "try:\n"
                "    effective_vertex_cap()\n"
                "except CapacityError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestSignatureEnumeration:
    def test_count_is_two_to_the_c(self, graphs_upto_6):
        for g in graphs_upto_6:
            sigs = list(enumerate_signatures(g))
            assert len(sigs) == 1 << cycle_space_dim(g)

    def test_first_is_all_positive(self, graphs_upto_6):
        for g in graphs_upto_6:
            first = next(iter(enumerate_signatures(g)))
            assert all(s == 1 for _, _, s in first.signed_edges)

    def test_only_first_is_balanced(self, graphs_upto_6):
        """The campaign reads balance off the enumeration order."""
        for g in graphs_upto_6:
            flags = [is_balanced(sg).balanced for sg in enumerate_signatures(g)]
            assert flags[0] and not any(flags[1:])

    def test_representatives_pairwise_inequivalent(self, graphs_upto_6):
        for g in graphs_upto_6:
            canons = {canonical_signature(sg).signed_edges
                      for sg in enumerate_signatures(g)}
            assert len(canons) == 1 << cycle_space_dim(g)

    def test_covers_every_labeled_signature(self):
        """Every sign assignment on every small graph is switching-equivalent
        to exactly one emitted representative."""
        for g in (cycle_graph(3), cycle_graph(4), path_graph(4),
                  Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)})),
                  Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}))):
            reps = {canonical_signature(sg).signed_edges
                    for sg in enumerate_signatures(g)}
            edge_list = g.sorted_edges()
            for bits in range(1 << len(edge_list)):
                signs = {e: -1 if (bits >> i) & 1 else 1
                         for i, e in enumerate(edge_list)}
                sg = SignedGraph.with_signs(g, signs)
                assert canonical_signature(sg).signed_edges in reps

    def test_representatives_have_positive_forest(self, graphs_upto_6):
        """Each representative is its own canonical signature."""
        for g in graphs_upto_6:
            for sg in enumerate_signatures(g):
                assert canonical_signature(sg) == sg
