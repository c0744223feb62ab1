"""Exact linear algebra tests.

Every fast path is checked against an independent oracle built here from
``fractions.Fraction``: plain Gaussian elimination for rank, and
evaluate-then-interpolate for the characteristic polynomial. The Sachs
coefficient route is cross-checked against the polynomial route, and the
basic-subgraph enumeration against a raw edge-subset filter.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from snlab import (
    CHAR_POLY_VERTEX_CAP,
    BasicSubgraph,
    CapacityError,
    Graph,
    SignedGraph,
    char_poly_exact,
    connected_components,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    enumerate_basic_subgraphs,
    nullity,
    path_graph,
    rank_exact,
    sachs_coefficients,
    signed_adjacency,
    zero_root_multiplicity,
)
from snlab.linalg import eliminate_outside, rank_division_free


# ---------------------------------------------------------------------------
# oracles

def fraction_rank(m) -> int:
    """Rank by textbook Gaussian elimination over exact rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def fraction_det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                factor = a[i][c] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[c])]
    return det


def interpolated_char_poly(m) -> tuple[int, ...]:
    """det(xI - M) recovered from n+1 point evaluations.

    Entirely independent of the Faddeev-LeVerrier recurrence: each value is
    a rational determinant, and the coefficients come from solving the
    Vandermonde system by Lagrange interpolation.
    """
    n = len(m)
    points = list(range(n + 1))
    values = []
    for x in points:
        shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)]
                   for i in range(n)]
        values.append(fraction_det(shifted))
    # Lagrange reconstruction: sum of values[k] * prod_{j != k} (x - xj) / (xk - xj)
    coeffs = [Fraction(0)] * (n + 1)
    for k, xk in enumerate(points):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == k:
                continue
            num = poly_mul(num, [-Fraction(xj), Fraction(1)])
            denom *= xk - xj
        scale = values[k] / denom
        for t, c in enumerate(num):
            coeffs[t] += scale * c
    out = []
    for c in reversed(coeffs):  # leading-first
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_signed_matrix(rng: random.Random, rows: int, cols: int, bound: int):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                 for _ in range(rows))


# ---------------------------------------------------------------------------
# rank and nullity

class TestRank:
    def test_known_ranks(self):
        assert rank_exact(((0, 0), (0, 0))) == 0
        assert rank_exact(((1, 0), (0, 1))) == 2
        assert rank_exact(((1, 2), (2, 4))) == 1
        assert rank_exact(()) == 0
        # balanced 4-cycle has two zero eigenvalues
        assert rank_exact(signed_adjacency(
            SignedGraph.all_positive(cycle_graph(4)))) == 2

    def test_against_fraction_elimination_exhaustive(self, signed_upto_5):
        for sg in signed_upto_5:
            m = signed_adjacency(sg)
            assert rank_exact(m) == fraction_rank(m)

    def test_against_fraction_elimination_random(self):
        rng = random.Random(90125)
        for _ in range(200):
            rows = rng.randrange(1, 8)
            cols = rng.randrange(1, 8)
            m = random_signed_matrix(rng, rows, cols, rng.choice((1, 3, 40)))
            assert rank_exact(m) == fraction_rank(m)

    def test_nullity_examples(self):
        c6 = cycle_graph(6)
        assert nullity(SignedGraph.all_positive(c6)) == 0
        assert nullity(SignedGraph.with_negatives(c6, [(0, 1)])) == 2
        assert nullity(SignedGraph.all_positive(path_graph(4))) == 0
        assert nullity(SignedGraph.all_positive(path_graph(5))) == 1


def core_matrix(sg: SignedGraph) -> list[list[int]]:
    """The signed adjacency matrix of the pendant core of ``sg``."""
    pos, k, _ = sg.graph.pendant_core
    rows = [[0] * k for _ in range(k)]
    for u, v, s in sg.signed_edges:
        if pos[u] >= 0 and pos[v] >= 0:
            rows[pos[u]][pos[v]] = rows[pos[v]][pos[u]] = s
    return rows


def random_rank_matrix(rng: random.Random, k: int, bound: int):
    """A random k x k integer matrix of rank at most a random r <= k: the
    product of a k x r and an r x k factor."""
    r = rng.randrange(k + 1)
    left = random_signed_matrix(rng, k, r, bound)
    right = random_signed_matrix(rng, r, k, bound)
    return tuple(tuple(sum(left[i][t] * right[t][j] for t in range(r))
                       for j in range(k)) for i in range(k))


class TestDivisionFreeRank:
    """``rank_division_free`` is the scan's kernel; Bareiss is the
    reference."""

    def test_known_ranks(self):
        assert rank_division_free(()) == 0
        assert rank_division_free(((0, 0), (0, 0))) == 0
        assert rank_division_free(((1, 2), (2, 4))) == 1
        assert rank_division_free(((0, 1), (1, 0))) == 2

    def test_cores_of_every_class_upto_6(self, signed_upto_6):
        for sg in signed_upto_6:
            m = core_matrix(sg)
            copy = [list(r) for r in m]
            assert rank_division_free(m) == rank_exact(m)
            assert m == copy

    def test_random_matrices_up_to_8(self):
        rng = random.Random(8128)
        deficient = 0
        for _ in range(600):
            k = rng.randrange(1, 9)
            bound = rng.choice((1, 2, 40))
            m = (random_rank_matrix(rng, k, bound) if rng.random() < 0.5
                 else random_signed_matrix(rng, k, k, bound))
            rank = rank_exact(m)
            deficient += rank < k
            assert rank_division_free(m) == rank
        assert deficient > 200


class TestEliminateOutside:
    """The scan eliminates the core outside the entries its inner bits
    change, once per block, and patches the residual."""

    @staticmethod
    def random_inner(rng: random.Random, k: int) -> list[int]:
        inner = [v for v in range(k) if rng.random() < 0.5]
        rng.shuffle(inner)
        return inner

    def test_rank_is_pivots_plus_residual_rank(self):
        rng = random.Random(4096)
        for _ in range(600):
            k = rng.randrange(0, 9)
            m = (random_rank_matrix(rng, k, 2) if rng.random() < 0.5
                 else random_signed_matrix(rng, k, k, 1))
            inner = self.random_inner(rng, k)
            pivots, residual, scale = eliminate_outside(m, inner)
            assert pivots + rank_exact(residual) == rank_exact(m)
            assert len(residual) == k - pivots and len(scale) == len(inner)
            assert all(len(row) == k - pivots for row in residual)

    def test_inner_change_patches_one_residual_entry(self):
        rng = random.Random(65537)
        for _ in range(400):
            k = rng.randrange(1, 9)
            m = random_signed_matrix(rng, k, k, 1)
            inner = self.random_inner(rng, k) or [0]
            pivots, residual, scale = eliminate_outside(m, inner)
            i, j = rng.randrange(len(inner)), rng.randrange(len(inner))
            delta = rng.choice((-2, -1, 1, 2))
            changed = [list(r) for r in m]
            changed[inner[i]][inner[j]] += delta
            residual[i][j] += scale[i] * delta
            assert eliminate_outside(changed, inner) == (pivots, residual, scale)

    def test_input_left_intact(self):
        m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        eliminate_outside(m, [2])
        assert m == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


class TestPendantReducedNullity:
    """``nullity`` eliminates only the pendant core; elimination of the
    whole matrix is the reference."""

    @staticmethod
    def full_matrix_nullity(sg: SignedGraph) -> int:
        return sg.n - rank_exact(signed_adjacency(sg))

    @staticmethod
    def random_signed(rng: random.Random, n: int, edges) -> SignedGraph:
        return SignedGraph.with_signs(Graph(n, frozenset(edges)),
                                      {e: rng.choice((1, -1)) for e in edges})

    def test_every_class_upto_6(self, signed_upto_6):
        for sg in signed_upto_6:
            assert nullity(sg) == self.full_matrix_nullity(sg)

    def test_random_connected_12_to_48(self):
        rng = random.Random(48)
        for n in range(12, 49):
            for c in range(7):
                # a random tree plus c further edges, randomly relabeled
                label = list(range(n))
                rng.shuffle(label)
                edges = {tuple(sorted((label[v], label[rng.randrange(v)])))
                         for v in range(1, n)}
                while len(edges) < n - 1 + c:
                    u, v = sorted(rng.sample(range(n), 2))
                    edges.add((u, v))
                sg = self.random_signed(rng, n, edges)
                assert nullity(sg) == self.full_matrix_nullity(sg)

    def test_random_disconnected_with_isolated_vertices(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 14)
            density = rng.random() * 0.4
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if rng.random() < density]
            sg = self.random_signed(rng, n, edges)
            assert nullity(sg) == self.full_matrix_nullity(sg)
        lonely = SignedGraph.with_negatives(
            disjoint_union(path_graph(3), Graph(2)), [(0, 1)])
        assert lonely.graph.pendant_core[2] == 3
        assert nullity(lonely) == self.full_matrix_nullity(lonely) == 3

    def test_zero_and_one_vertex(self):
        assert nullity(SignedGraph.all_positive(Graph(0))) == 0
        assert nullity(SignedGraph.all_positive(Graph(1))) == 1


class TestCharPoly:
    def test_known_polynomials(self):
        c3 = cycle_graph(3)
        assert char_poly_exact(signed_adjacency(
            SignedGraph.all_positive(c3))) == (1, 0, -3, -2)
        assert char_poly_exact(signed_adjacency(
            SignedGraph.with_negatives(c3, [(0, 1), (0, 2), (1, 2)]))) == \
            (1, 0, -3, 2)
        c4 = cycle_graph(4)
        assert char_poly_exact(signed_adjacency(
            SignedGraph.all_positive(c4))) == (1, 0, -4, 0, 0)
        assert char_poly_exact(signed_adjacency(
            SignedGraph.with_negatives(c4, [(0, 1)]))) == (1, 0, -4, 0, 4)
        assert char_poly_exact(((0,),)) == (1, 0)
        assert char_poly_exact(()) == (1,)

    def test_against_interpolation_exhaustive(self, signed_upto_5):
        for sg in signed_upto_5:
            m = signed_adjacency(sg)
            assert char_poly_exact(m) == interpolated_char_poly(m)

    def test_against_interpolation_random(self):
        rng = random.Random(5150)
        for _ in range(60):
            n = rng.randrange(1, 7)
            m = random_signed_matrix(rng, n, n, rng.choice((1, 5)))
            assert char_poly_exact(m) == interpolated_char_poly(m)

    def test_shape_and_trace(self, signed_upto_5):
        for sg in signed_upto_5:
            poly = char_poly_exact(signed_adjacency(sg))
            assert len(poly) == sg.n + 1
            assert poly[0] == 1
            assert poly[1] == 0  # adjacency matrices have zero trace

    def test_nullity_agrees_with_zero_root(self, signed_upto_5):
        """Dual route: elimination rank vs zero-root multiplicity of the
        characteristic polynomial."""
        for sg in signed_upto_5:
            poly = char_poly_exact(signed_adjacency(sg))
            assert nullity(sg) == zero_root_multiplicity(poly)

    def test_capacity(self):
        big = tuple(tuple(0 for _ in range(17)) for _ in range(17))
        assert len(big) > CHAR_POLY_VERTEX_CAP
        with pytest.raises(CapacityError):
            char_poly_exact(big)
        # explicit cap override allows it
        assert char_poly_exact(big, cap=17)[0] == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly_exact(((1, 2, 3), (4, 5, 6)))

    def test_inexact_division_raises(self):
        # integer matrices always divide exactly; a fractional entry does not
        with pytest.raises(ArithmeticError):
            char_poly_exact(((Fraction(1, 2),),))


class TestZeroRootMultiplicity:
    def test_examples(self):
        assert zero_root_multiplicity((1, 0, -4, 0, 0)) == 2
        assert zero_root_multiplicity((1, 0, -3, -2)) == 0
        assert zero_root_multiplicity((1,)) == 0
        assert zero_root_multiplicity((1, 0, 0, 0)) == 3


# ---------------------------------------------------------------------------
# basic subgraphs and Sachs coefficients

def brute_force_basic_subgraphs(sg: SignedGraph, i: int):
    """Filter all edge subsets for unions of single edges and cycles that
    cover exactly i vertices. Returns the same field tuples as the library
    enumeration, as a set."""
    g = sg.graph
    out = set()
    edge_list = g.sorted_edges()
    for k in range(len(edge_list) + 1):
        for combo in itertools.combinations(edge_list, k):
            vertices = {v for e in combo for v in e}
            if len(vertices) != i:
                continue
            sub = Graph(g.n, frozenset(combo))
            degs = [sub.degree(v) for v in vertices]
            if any(d not in (1, 2) for d in degs):
                continue
            comps = [c for c in connected_components(sub) if len(c) > 1]
            ok = True
            cycles = 0
            negs = 0
            for comp in comps:
                comp_edges = [e for e in combo if e[0] in comp]
                if len(comp_edges) == len(comp):  # a cycle
                    cycles += 1
                    negs += sum(1 for u, v in comp_edges if sg.sign(u, v) == -1)
                elif len(comp_edges) != 1:  # a longer path: not basic
                    ok = False
                    break
            if ok:
                out.add((frozenset(combo), len(comps), cycles, negs))
    return out


class TestBasicSubgraphs:
    def test_against_edge_subset_filter(self, signed_upto_5):
        for sg in signed_upto_5:
            by_order = [set() for _ in range(sg.n + 1)]
            for b in enumerate_basic_subgraphs(sg):
                assert b.order == len({v for e in b.edges for v in e})
                by_order[b.order].add((b.edges, b.components, b.num_cycles,
                                       b.negative_cycle_edges))
            for i in range(sg.n + 1):
                assert by_order[i] == brute_force_basic_subgraphs(sg, i)

    def test_no_duplicates_and_sorted(self, signed_upto_5):
        for sg in signed_upto_5:
            bs = enumerate_basic_subgraphs(sg)
            keys = [(b.order, sorted(b.edges)) for b in bs]
            assert keys == sorted(keys)
            assert len({b.edges for b in bs}) == len(bs)

    def test_known_counts(self):
        def of_order(sg, i):
            return [b for b in enumerate_basic_subgraphs(sg) if b.order == i]

        c3 = SignedGraph.all_positive(cycle_graph(3))
        assert len(of_order(c3, 2)) == 3
        assert of_order(c3, 3) == [BasicSubgraph(
            frozenset({(0, 1), (0, 2), (1, 2)}), 1, 1, 0)]
        p3 = SignedGraph.all_positive(path_graph(3))
        assert of_order(p3, 3) == []
        assert len(of_order(p3, 0)) == 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_basic_subgraphs(SignedGraph.all_positive(path_graph(13)))


class TestSachs:
    def test_single_edge_coefficients(self):
        # one vertex never carries a basic subgraph
        sg = SignedGraph.all_positive(path_graph(2))
        assert sachs_coefficients(sg) == (1, 0, -1)

    def test_sign_of_cycle_term(self):
        """The 4-cycle's x^0 coefficient separates the two signatures: two
        perfect matchings contribute +2, the cycle term is -2 when balanced
        and +2 when one edge is negative."""
        c4 = cycle_graph(4)
        assert sachs_coefficients(SignedGraph.all_positive(c4))[4] == 0
        assert sachs_coefficients(
            SignedGraph.with_negatives(c4, [(0, 1)]))[4] == 4

    def test_matches_char_poly_exhaustive(self, signed_upto_5):
        for sg in signed_upto_5:
            assert sachs_coefficients(sg) == char_poly_exact(signed_adjacency(sg))

    def test_vertex_coefficient_vanishes(self, signed_upto_5):
        for sg in signed_upto_5:
            assert sachs_coefficients(sg)[1] == 0


# ---------------------------------------------------------------------------
# spectral consequences used elsewhere

class TestInterlacing:
    def test_vertex_deletion_changes_nullity_by_at_most_one(self, signed_upto_5):
        for sg in signed_upto_5:
            eta = nullity(sg)
            for x in range(sg.n):
                sub, _ = delete_vertices(sg, [x])
                assert abs(nullity(sub) - eta) <= 1


class TestComponentAdditivity:
    def test_char_poly_of_disjoint_union_is_product(self):
        rng = random.Random(1984)
        pool = [
            SignedGraph.all_positive(cycle_graph(3)),
            SignedGraph.with_negatives(cycle_graph(4), [(0, 1)]),
            SignedGraph.all_positive(path_graph(3)),
            SignedGraph.with_negatives(cycle_graph(5), [(1, 2)]),
        ]
        for _ in range(12):
            a = rng.choice(pool)
            b = rng.choice(pool)
            shift = a.n
            edges = list(a.signed_edges) + [
                (u + shift, v + shift, s) for u, v, s in b.signed_edges]
            union = SignedGraph.with_signs(
                Graph(a.n + b.n,
                      frozenset((u, v) for u, v, _ in edges)),
                {(u, v): s for u, v, s in edges})
            product = [int(x) for x in poly_mul(
                [Fraction(c) for c in reversed(char_poly_exact(signed_adjacency(a)))],
                [Fraction(c) for c in reversed(char_poly_exact(signed_adjacency(b)))])]
            product.reverse()
            assert char_poly_exact(signed_adjacency(union)) == tuple(product)
            assert nullity(union) == nullity(a) + nullity(b)
