"""Exhaustive, deterministic enumeration of graphs and signatures.

Connected graphs are generated up to isomorphism by vertex augmentation:
every connected graph on k >= 2 vertices has a non-cut vertex, so it arises
from a connected graph on k-1 vertices by attaching a new vertex to a
nonempty neighbor set. Each child is searched once for its canonical form
(minimum adjacency bitstring over label permutations, restricted to
color-refinement classes); the catalog is the set of these forms, each
decoded once. Deleting a non-cut vertex never increases the cycle-space
dimension, so a dimension cap may prune at every level.

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
from itertools import combinations, permutations
from typing import Iterator, Optional

from .balance import cotree_edges
from .errors import CapacityError
from .graphs import Graph, SignedGraph, cycle_space_dim, girth

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

def _refine_colors(g: Graph) -> list[int]:
    """Iterated neighborhood color refinement; canonical color ids."""
    colors = [g.degree(v) for v in range(g.n)]
    # normalize to dense ids ordered by key so ids are label-independent
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
                for v in range(g.n)]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if new == colors:
            return new
        colors = new


def canonical_form(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key ``(n, bits)``; equal iff isomorphic.

    ``bits`` is the least adjacency bitstring (the upper triangle in
    :meth:`Graph.from_bits` order) over the relabelings that preserve the
    refinement classes, so ``Graph.from_bits(*canonical_form(g))`` is the
    canonically labeled copy of ``g``.
    """
    colors = _refine_colors(g)
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
        for perm in permutations(blocks[i]):
            yield from all_orders(i + 1, acc + perm)

    def bits_of(order: tuple[int, ...]) -> int:
        bits = 0
        for j in range(1, g.n):
            oj = order[j]
            for i in range(j):
                bits = (bits << 1) | ((masks[order[i]] >> oj) & 1)
        return bits

    return g.n, min(map(bits_of, all_orders(0, ())))


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
        pc = cycle_space_dim(parent)
        budget = None if max_c is None else max_c - pc + 1
        for size in range(1, n):
            if budget is not None and size > budget:
                break
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
