"""Exact integer linear algebra for signed adjacency matrices.

Rank (hence nullity) comes from fraction-free Gaussian elimination; the
characteristic polynomial from the Faddeev-LeVerrier recurrence, whose
divisions are exact over the integers by Newton's identities. No floats
anywhere, so eigenvalue-multiplicity questions never hit rounding.
``nullity`` strips pendant pairs before elimination: a pendant vertex and
its neighbour never change the nullity, so only the pendant-free core of
the graph reaches Bareiss. ``rank_division_free`` and ``eliminate_outside``
are the faster kernels for the small cores of the campaign, checked against
Bareiss in the tests.

The module also enumerates basic subgraphs (disjoint unions of single edges
and cycles) and evaluates the signed coefficient sum over them, giving a
second, combinatorial route to the characteristic polynomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityError
from .graphs import Edge, Graph, SignedGraph

IntMatrix = tuple[tuple[int, ...], ...]

CHAR_POLY_VERTEX_CAP = 16
SACHS_VERTEX_CAP = 12


def signed_adjacency(sg: SignedGraph) -> IntMatrix:
    """Symmetric matrix with the edge sign in position (u, v), else 0."""
    n = sg.n
    rows = [[0] * n for _ in range(n)]
    for u, v, s in sg.signed_edges:
        rows[u][v] = s
        rows[v][u] = s
    return tuple(tuple(r) for r in rows)


def rank_exact(m: IntMatrix) -> int:
    """Rank over the rationals, by Bareiss fraction-free elimination.

    All intermediate values stay integers; the division in the update rule
    is exact (Sylvester's identity).
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def rank_division_free(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by division-free elimination.

    A row with entry ``f`` in the pivot column becomes ``p * row - f *
    pivot_row``, ``p`` the pivot; a row already 0 there is skipped. There
    is no division, so entries can square at every step (up to 2**127 on
    an 8 x 8 matrix of signs); on the sparse pendant cores of the campaign
    it is still faster than :func:`rank_exact`, the reference. Rows are
    rebound, never written, so ``m`` is left intact.
    """
    a = list(m)
    rank = 0
    for c in range(len(a[0]) if a else 0):
        for i, pivot in enumerate(a):
            if pivot[c]:
                break
        else:
            continue
        del a[i]
        rank += 1
        if not a:
            break
        p = pivot[c]
        a = [[x * p - f * y for x, y in zip(row, pivot)] if (f := row[c]) else row
             for row in a]
    return rank


def eliminate_outside(m: Sequence[Sequence[int]], inner: Sequence[int]
                      ) -> tuple[int, list[list[int]], list[int]]:
    """Division-free elimination of the columns outside ``inner``, with
    pivots from the rows outside ``inner`` only; ``m`` is square.

    Returns ``(pivots, residual, scale)`` with ``rank(m) == pivots +
    rank(residual)``: every step is invertible, and the rows left over are 0
    in every pivot column. The residual's rows are the inner rows (in the
    order of ``inner``), then the outer rows left without a pivot; its
    columns are the inner columns in the same order, then the outer columns
    left without a pivot. An outer row is only ever combined with outer
    rows, and inner row ``i`` with outer rows after being multiplied by
    ``scale[i]``; so adding ``delta`` to ``m[inner[i]][inner[j]]`` adds
    ``scale[i] * delta`` to ``residual[i][j]`` and changes nothing else.
    ``m`` is left intact.
    """
    is_inner = set(inner)
    outer = [row for v, row in enumerate(m) if v not in is_inner]
    inner_rows = [m[v] for v in inner]
    scale = [1] * len(inner_rows)
    keep = list(inner)
    pivots = 0
    for c in range(len(m)):
        if c in is_inner:
            continue
        for i, pivot in enumerate(outer):
            if pivot[c]:
                break
        else:
            keep.append(c)
            continue
        del outer[i]
        pivots += 1
        p = pivot[c]
        outer = [[x * p - f * y for x, y in zip(row, pivot)] if (f := row[c]) else row
                 for row in outer]
        for i, row in enumerate(inner_rows):
            if f := row[c]:
                inner_rows[i] = [x * p - f * y for x, y in zip(row, pivot)]
                scale[i] *= p
    return pivots, [[row[c] for c in keep] for row in inner_rows + outer], scale


def nullity(sg: SignedGraph) -> int:
    """Multiplicity of the eigenvalue zero of the signed adjacency matrix.

    Bareiss runs only on the graph's pendant core (:attr:`Graph.pendant_core`,
    computed once per underlying graph). Proof: the row of a pendant vertex
    u is +-e_v for its neighbour v, and column u likewise, so clearing row
    and column v with them leaves the 2x2 block of u, v beside the matrix of
    G - u - v; the rank drops by exactly 2 per pair, whatever the signs, and
    an isolated vertex is a zero row that adds 1 to the nullity. A graph
    whose core is empty, as most sparse graphs' is, builds no matrix: its
    nullity is the number of isolated vertices.
    """
    _, k, isolated = sg.graph.pendant_core
    if k == 0:
        return isolated
    return isolated + k - rank_exact(_core_rows(sg.graph, sg.negatives))


def _core_rows(g: Graph, negatives: frozenset[Edge]) -> list[list[int]]:
    """The signed adjacency matrix of ``g``'s pendant core, as lists:
    -1 on the edges of ``negatives``, +1 on the other edges."""
    pos, k, _ = g.pendant_core
    rows = [[0] * k for _ in range(k)]
    for e in g.edges:
        i, j = pos[e[0]], pos[e[1]]
        if i >= 0 and j >= 0:
            rows[i][j] = rows[j][i] = -1 if e in negatives else 1
    return rows


def char_poly_exact(m: IntMatrix, cap: int = CHAR_POLY_VERTEX_CAP) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - M), coefficients leading-first.

    Faddeev-LeVerrier over the integers: M_k = M M_{k-1} + c_{k-1} I and
    c_k = -tr(M M_k) / k, an exact division.
    """
    n = len(m)
    if n > cap:
        raise CapacityError(
            f"characteristic polynomial is capped at {cap} vertices, got {n}")
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    coeffs = [1]
    aux = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # aux <- M @ aux + c_{k-1} I
        nxt = [[sum(m[i][t] * aux[t][j] for t in range(n)) for j in range(n)]
               for i in range(n)]
        for i in range(n):
            nxt[i][i] += coeffs[k - 1]
        aux = nxt
        trace = sum(sum(m[i][t] * aux[t][i] for t in range(n)) for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact")
        coeffs.append(q)
    return tuple(coeffs)


def zero_root_multiplicity(poly: tuple[int, ...]) -> int:
    """Multiplicity of the root 0, i.e. trailing zero coefficients."""
    k = 0
    for c in reversed(poly):
        if c != 0:
            break
        k += 1
    return k


# ---------------------------------------------------------------------------
# basic subgraphs and the coefficient formula

@dataclass(frozen=True)
class BasicSubgraph:
    """A spanning structure of single edges and vertex-disjoint cycles.

    ``components`` counts all components, ``num_cycles`` the cycle
    components, ``negative_cycle_edges`` the negative edges lying on cycle
    components (summed over all of them).
    """

    edges: frozenset[Edge]
    components: int
    num_cycles: int
    negative_cycle_edges: int

    @property
    def order(self) -> int:
        """The vertex count: a cycle has as many vertices as edges, a
        single edge one more."""
        return len(self.edges) + self.components - self.num_cycles


def enumerate_basic_subgraphs(sg: SignedGraph) -> list[BasicSubgraph]:
    """All basic subgraphs, of every order, sorted by ``(order, sorted
    edges)``; capped at :data:`SACHS_VERTEX_CAP` vertices.

    A basic subgraph is a subgraph whose components are single edges or
    cycles. Its pieces are listed once: every edge, and every simple cycle,
    found by one path search from its least vertex and kept in the
    direction whose second vertex is below its last. The recursion adds
    pieces in strictly increasing order of least vertex, skipping any that
    meets a used vertex, so each basic subgraph is built exactly once.
    """
    g = sg.graph
    n = g.n
    if n > SACHS_VERTEX_CAP:
        raise CapacityError(
            f"basic subgraphs are capped at {SACHS_VERTEX_CAP} vertices, got {n}")
    adj = g._adj
    # pieces[u]: (vertex mask, edges, is cycle, negative edges), least vertex u
    pieces: list[list[tuple[int, frozenset[Edge], int, int]]] = [
        [(1 << u | 1 << w, frozenset([(u, w)]), 0, 0) for w in adj[u] if w > u]
        for u in range(n)]

    def cycles_from(u: int, path: tuple[int, ...], mask: int):
        """Add to ``pieces[u]`` each cycle with least vertex ``u`` that
        continues ``path``."""
        v = path[-1]
        for w in adj[v]:
            if w == u and len(path) >= 3 and path[1] < v:
                ends = path + (u,)
                ce = frozenset((a, b) if a < b else (b, a)
                               for a, b in zip(ends, ends[1:]))
                pieces[u].append((mask, ce, 1, len(ce & sg.negatives)))
            elif w > u and not mask >> w & 1:
                cycles_from(u, path + (w,), mask | 1 << w)

    for u in range(n):
        cycles_from(u, (u,), 1 << u)
    out: list[BasicSubgraph] = []

    def rec(start: int, used: int, edges: frozenset[Edge],
            comps: int, cycs: int, negs: int):
        out.append(BasicSubgraph(edges, comps, cycs, negs))
        for u in range(start, n):
            if used >> u & 1:
                continue
            for mask, piece, cyc, neg in pieces[u]:
                if not mask & used:
                    rec(u + 1, used | mask, edges | piece,
                        comps + 1, cycs + cyc, negs + neg)

    rec(0, 0, frozenset(), 0, 0, 0)
    out.sort(key=lambda b: (b.order, sorted(b.edges)))
    return out


def sachs_coefficients(sg: SignedGraph) -> tuple[int, ...]:
    """All coefficients a_0 .. a_n of the characteristic polynomial,
    leading-first, computed combinatorially.

    Each basic subgraph on ``i`` vertices adds (-1)**(components + negative
    cycle edges) * 2**(cycles) to a_i; the empty one gives a_0 = 1.
    """
    coeffs = [0] * (sg.n + 1)
    for b in enumerate_basic_subgraphs(sg):
        sign = -1 if (b.components + b.negative_cycle_edges) % 2 else 1
        coeffs[b.order] += sign * 2 ** b.num_cycles
    return tuple(coeffs)
