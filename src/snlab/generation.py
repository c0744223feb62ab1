"""Exhaustive, deterministic enumeration of graphs and signatures.

Connected graphs are generated up to isomorphism by vertex augmentation:
every connected graph on k >= 2 vertices has a non-cut vertex, so it arises
from a connected graph on k-1 vertices by attaching a new vertex to a
nonempty neighbor set; deleting a non-cut vertex never increases the
cycle-space dimension, so a dimension cap may prune at every level. The
catalog is the set of the children's canonical forms, each decoded once.
The search for a form keeps only the partial orders with the least prefix
(exact: columns have fixed lengths) and tries one vertex per twin class
(exact: swapping two twins is an automorphism fixing the placed vertices).

Signatures are enumerated one per switching class: fixing a spanning
forest, every class has exactly one representative with all forest edges
positive, so the 2^c sign patterns on the non-forest edges cover all
classes without repetition. Switching preserves the spectrum and all cycle
signs, so per-class enumeration is exhaustive for every invariant this
package computes.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Optional

from .errors import CapacityError
from .graphs import Graph, SignedGraph, cotree_edges, cycle_space_dim, girth

ENUMERATION_VERTEX_CAP = 8
CAPACITY_OVERRIDE_ENV = "SNLAB_CAPACITY_OVERRIDE"


def effective_vertex_cap() -> int:
    """Enumeration cap; the environment may raise it for larger campaigns."""
    raw = os.environ.get(CAPACITY_OVERRIDE_ENV)
    if raw is None:
        return ENUMERATION_VERTEX_CAP
    try:
        value = int(raw)
    except ValueError:
        raise CapacityError(
            f"{CAPACITY_OVERRIDE_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise CapacityError(f"{CAPACITY_OVERRIDE_ENV} must be positive")
    return value


def check_vertex_cap(n: int, cap: Optional[int] = None) -> None:
    """Raise :class:`CapacityError` when ``n`` exceeds ``cap`` (by default
    the environment's cap)."""
    cap = effective_vertex_cap() if cap is None else cap
    if n > cap:
        raise CapacityError(
            f"enumeration is capped at {cap} vertices, got {n} "
            f"(set {CAPACITY_OVERRIDE_ENV} to override)")


# ---------------------------------------------------------------------------
# canonical forms

def _refine_colors(nbrs: list[list[int]]) -> list[int]:
    """Iterated neighborhood color refinement; canonical color ids."""
    colors = [len(a) for a in nbrs]
    # normalize to dense ids ordered by key so ids are label-independent
    while True:
        keys = [(c, tuple(sorted([colors[w] for w in a])))
                for c, a in zip(colors, nbrs)]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if new == colors:
            return new
        colors = new


def canonical_form(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key ``(n, bits)``; equal iff isomorphic.

    ``bits`` is the least adjacency bitstring (the upper triangle in
    :meth:`Graph.from_bits` order) over the relabelings that preserve the
    refinement blocks; ``Graph.from_bits(*canonical_form(g))`` is the
    canonically labeled copy of ``g``. Position by position, the search
    keeps only the partial orders with the least new column (exact: columns
    have fixed lengths) and tries one vertex per twin class, ``N(u) - {w} ==
    N(w) - {u}`` (exact: swapping twins is an automorphism fixing the rest).
    """
    n, nbrs = g.n, [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colors = _refine_colors(nbrs)
    # (placed, cols): bits v*n.. of cols hold v's column if placed next; v
    # waits for its lower twins, keyed by N(v) or N[v] (no N(u) is an N[w])
    adj = [sum(1 << w * n for w in a) for a in nbrs]
    need, first = [0] * n, {}
    for v in range(n):
        for key in (adj[v], adj[v] | 1 << v * n):
            first[key] = first.get(key, 0) | 1 << v
            need[v] |= first[key]
    frontier, bits, full = [(0, 0)], 0, (1 << n) - 1
    for j, color in enumerate(sorted(colors)):
        best, picks = full + 1, []
        for (placed, cols), v in product(frontier, range(n)):
            if colors[v] == color and placed & need[v] == need[v] ^ 1 << v:
                col = cols >> v * n & full
                if col < best:
                    best, picks = col, []
                if col == best:
                    picks.append((placed | 1 << v, cols | adj[v] << n - 1 - j))
        frontier, bits = picks, (bits << j) | best >> (n - j)
    return n, bits


def canonical_graph(g: Graph) -> Graph:
    """The representative of ``g``'s isomorphism class."""
    return Graph.from_bits(*canonical_form(g))


# ---------------------------------------------------------------------------
# connected graph catalogs

@lru_cache(maxsize=None)
def _connected_catalog(n: int, max_c: Optional[int]) -> tuple[Graph, ...]:
    """All connected graphs on ``n`` vertices up to isomorphism, with
    cycle-space dimension at most ``max_c`` when given. Canonically labeled,
    sorted by canonical form."""
    if n == 0:
        return ()
    if n == 1:
        return (Graph(1, frozenset()),)
    forms: set[tuple[int, int]] = set()
    for parent in _connected_catalog(n - 1, max_c):
        top = n - 1 if max_c is None else max_c - cycle_space_dim(parent) + 1
        for size in range(1, min(n - 1, top) + 1):
            for nbrs in combinations(range(n - 1), size):
                forms.add(canonical_form(
                    Graph(n, parent.edges | {(v, n - 1) for v in nbrs})))
    return tuple(Graph.from_bits(*form) for form in sorted(forms))


def enumerate_connected(n: int, max_c: Optional[int] = None,
                        unicyclic_only: bool = False,
                        min_girth: Optional[int] = None,
                        cap: Optional[int] = None) -> Iterator[Graph]:
    """Connected graphs on exactly ``n`` vertices, one per isomorphism
    class, in a fixed deterministic order.

    ``max_c`` bounds the cycle-space dimension, ``unicyclic_only`` keeps
    dimension exactly 1, ``min_girth`` drops graphs with shorter cycles.
    ``n`` beyond the cap raises :class:`CapacityError`.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if max_c is not None and max_c < 0:
        raise ValueError(f"max_c must be nonnegative, got {max_c}")
    check_vertex_cap(n, cap)
    eff_max_c = 1 if unicyclic_only else max_c
    for g in _connected_catalog(n, eff_max_c):
        if unicyclic_only and cycle_space_dim(g) != 1:
            continue
        if min_girth is not None:
            gi = girth(g)
            if gi is not None and gi < min_girth:
                continue
        yield g


def enumerate_signatures(g: Graph) -> Iterator[SignedGraph]:
    """One signature per switching class, all-positive first.

    Forest edges are pinned positive; the ``i``-th non-forest edge (sorted)
    is negative exactly when bit ``i`` of the pattern index is set. Only the
    first (all-positive) signature is balanced: any negative non-forest
    edge closes a negative fundamental cycle with the positive forest.
    """
    free = cotree_edges(g)
    for pattern in range(1 << len(free)):
        yield SignedGraph(g, frozenset(
            e for i, e in enumerate(free) if (pattern >> i) & 1))


def count_switching_classes(g: Graph) -> int:
    return 1 << cycle_space_dim(g)
