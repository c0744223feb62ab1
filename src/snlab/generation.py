"""Exhaustive, deterministic enumeration of graphs and signatures.

Connected graphs are generated up to isomorphism by vertex augmentation:
every connected graph on k >= 2 vertices has a non-cut vertex, so it arises
from a connected graph on k-1 vertices by attaching a new vertex to a
nonempty neighbor set; deleting a non-cut vertex never increases the
cycle-space dimension, so a dimension cap may prune at every level. The
catalog is the set of the children's canonical forms; it keeps no graph.
Neighbor sets in one orbit of the parent's automorphism group give
isomorphic children, so a set in the orbit of one visited before is
skipped (388 visits for n <= 6, against 759 children). A visited child is
also skipped when another non-cut vertex has a greater isomorphism-invariant
key than the new vertex (:func:`_outranked`): every connected graph still
arises from the parent left by deleting a non-cut vertex of greatest key,
under a dimension cap too, so the catalog stays complete, and the set of
forms removes the duplicates that ties leave (144 forms for the 143 graphs
with n <= 6). The search for a form keeps only the partial orders with the
least prefix (exact: columns have fixed lengths) and tries one vertex per
twin class (exact: swapping two twins is an automorphism fixing the placed
vertices).
The group is a few generators per graph (:func:`automorphism_generators`),
found by backtracking within the refinement colours.

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

from .balance import _at_bits
from .errors import CapacityError
from .graphs import Graph, SignedGraph, cycle_space_dim

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
    return _canonical_form([sum(1 << w for w in a) for a in g._adj])


def _canonical_form(masks: list[int]) -> tuple[int, int]:
    """:func:`canonical_form` of the graph whose vertex ``v`` has the
    neighbours of the set bits of ``masks[v]``."""
    n = len(masks)
    nbrs = [[w for w in range(n) if a >> w & 1] for a in masks]
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


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphism group of ``g`` as image tuples
    (``perm[v]`` is the image of ``v``).

    The search goes from the deepest level first: for ``i = n-2 .. 0`` and
    each ``w > i`` of ``i``'s refinement colour outside the orbit of ``i``
    under the generators found so far, it keeps one automorphism fixing
    ``0 .. i-1`` and sending ``i`` to ``w``, if there is one. The generators
    kept at levels ``>= i`` then generate the pointwise stabilizer of ``0 ..
    i-1`` (a strong generating set), and each one joins two orbits of the
    group found before it, so there are at most ``n - 1``: K_n gets ``n -
    1`` transpositions.
    """
    n, nbrs = g.n, g._adj
    colors = _refine_colors(nbrs)
    adj = [sum(1 << w for w in a) for a in nbrs]
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    gens: list[tuple[int, ...]] = []
    choices = [[v] for v in range(n)]  # the images a search may give v
    for i in range(n - 2, -1, -1):
        choices[i + 1] = cells[colors[i + 1]]
        # the images of i that keep its adjacency to the fixed 0 .. i-1
        fixed = adj[i] & (1 << i) - 1
        targets = [w for w in cells[colors[i]]
                   if w > i and adj[w] & (1 << i) - 1 == fixed]
        if not targets:
            continue
        # 0 .. i first, then the rest in breadth-first order, so most meet a
        # placed neighbour, whose image leaves them few candidates
        order = list(range(i + 1)) + [v for v in g._forest[1] if v > i]
        plan = [(v, [u for u in order[:p] if adj[v] >> u & 1])
                for p, v in enumerate(order)]
        orbit = {i}
        for w in targets:
            if w in orbit:
                continue
            choices[i] = [w]
            perm = _extend(plan, adj, choices)
            if perm is None:
                continue
            gens.append(perm)
            todo = [i]
            while todo:
                v = todo.pop()
                for p in gens:
                    if p[v] not in orbit:
                        orbit.add(p[v])
                        todo.append(p[v])
    return tuple(gens)


def _extend(plan: list[tuple[int, list[int]]], adj: list[int],
            choices: list[list[int]]) -> Optional[tuple[int, ...]]:
    """An automorphism sending each ``v`` into ``choices[v]``, or None: a
    backtracking search placing the vertices as ``plan`` lists them, each
    with its neighbours placed before it. A candidate image must match the
    adjacency to every vertex placed before. Iterative, so the depth is
    not bounded by the recursion limit."""
    img, tried = [-1] * len(plan), [0] * len(plan)
    p = used = 0
    while 0 <= p < len(plan):
        v, back = plan[p]
        if img[v] >= 0:  # back from p + 1: free the last image of v
            used ^= 1 << img[v]
            img[v] = -1
        want = sum(1 << img[u] for u in back)
        for k in range(tried[p], len(choices[v])):
            x = choices[v][k]
            if not used >> x & 1 and adj[x] & used == want:
                img[v], tried[p] = x, k + 1
                used |= 1 << x
                p += 1
                break
        else:
            tried[p] = 0
            p -= 1
    return tuple(img) if p == len(plan) else None


def _xor_table(masks: list[int]) -> list[int]:
    """The XOR of ``masks[i]`` over the set bits ``i`` of ``x``, for each
    ``x < 2**len(masks)``."""
    table = [0]
    for mask in masks:
        table += [x ^ mask for x in table]
    return table


class _LinearAction:
    """Permutations of bit patterns that are linear over GF(2), each given
    by the images of the unit patterns ``1 << i``; ``x`` goes to the XOR of
    the images of its set bits. Each permutation is kept as three lookup
    tables, one per third of the bits, so it takes ``3 * 2**(bits/3)``
    entries, not ``2**bits``."""

    def __init__(self, units: list[list[int]]):
        self.w = w = -(-len(units[0]) // 3) if units else 0
        self.maps = [tuple(_xor_table(u[i:i + w]) for i in (0, w, 2 * w))
                     for u in units]

    def mark_orbit(self, x: int, marks, mark: int, partner: int) -> None:
        """Set ``marks[y] = marks[y ^ partner] = mark`` on the orbit of
        ``x``, which with its XOR by ``partner`` is unmarked (0) as a whole;
        every permutation must fix ``partner``. Then the XOR by ``partner``
        maps the orbit onto an orbit, so only ``y`` is walked: an entry
        marked as a partner is reached again as the partner of its images.
        """
        w, third = self.w, (1 << self.w) - 1
        marks[x] = marks[x ^ partner] = mark
        todo = [x]
        while todo:
            x = todo.pop()
            for t0, t1, t2 in self.maps:
                y = t0[x & third] ^ t1[x >> w & third] ^ t2[x >> 2 * w]
                if not marks[y]:
                    marks[y] = marks[y ^ partner] = mark
                    todo.append(y)


# ---------------------------------------------------------------------------
# connected graph catalogs

def _outranked(adj: list[int], v: int) -> bool:
    """Whether a non-cut vertex of the connected graph with adjacency masks
    ``adj`` has a greater key than ``v``; the key, ``(degree, sorted
    neighbour degrees)``, is invariant under isomorphism."""
    n = len(adj)
    deg = [a.bit_count() for a in adj]

    def key(u: int) -> tuple[int, list[int]]:
        return deg[u], sorted([deg[w] for w in range(n) if adj[u] >> w & 1])

    mine = key(v)
    for u in range(n):
        if deg[u] >= mine[0] and u != v and key(u) > mine:
            rest = ((1 << n) - 1) ^ 1 << u  # is G - u connected?
            reach, grown = 0, rest & -rest
            while grown != reach:
                reach = grown
                for w in range(n):
                    if reach >> w & 1:
                        grown |= adj[w] & rest
            if reach == rest:
                return True
    return False


@lru_cache(maxsize=None)
def _connected_catalog(n: int, max_c: Optional[int]) -> tuple[tuple[int, int], ...]:
    """The sorted canonical forms of the connected graphs on ``n`` vertices,
    with cycle-space dimension at most ``max_c`` when given. Only integers
    are cached: a parent is a Graph only while its children are built."""
    if n == 1:
        return ((1, 0),)
    forms: set[tuple[int, int]] = set()
    for form in _connected_catalog(n - 1, max_c):
        parent = Graph.from_bits(*form)
        top = n - 1 if max_c is None else max_c - cycle_space_dim(parent) + 1
        # the parent's automorphisms acting on neighbour sets as bitmasks
        action = _LinearAction([[1 << v for v in p]
                                for p in automorphism_generators(parent)])
        seen = bytearray(1 << n - 1)  # 1 on the orbits of the sets visited
        masks = [sum(1 << w for w in a) for a in parent._adj]
        for size in range(1, min(n - 1, top) + 1):
            for nbrs in combinations(range(n - 1), size):
                mask = sum(1 << v for v in nbrs)
                if not seen[mask]:
                    action.mark_orbit(mask, seen, 1, 0)
                    adj = masks + [mask]
                    for v in nbrs:
                        adj[v] |= 1 << n - 1
                    if not _outranked(adj, n - 1):
                        forms.add(_canonical_form(adj))
    return tuple(sorted(forms))


def enumerate_connected(n: int, max_c: Optional[int] = None,
                        cap: Optional[int] = None) -> Iterator[Graph]:
    """Connected graphs on exactly ``n`` vertices, one per isomorphism
    class, in a fixed deterministic order, built anew on each call from
    the cached forms; ``max_c`` bounds the cycle-space dimension, and
    ``n`` beyond the cap raises :class:`CapacityError`."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if max_c is not None and max_c < 0:
        raise ValueError(f"max_c must be nonnegative, got {max_c}")
    check_vertex_cap(n, cap)
    for form in _connected_catalog(n, max_c):
        yield Graph.from_bits(*form)


def enumerate_signatures(g: Graph) -> Iterator[SignedGraph]:
    """One signature per switching class, all-positive first.

    Forest edges are pinned positive; the ``i``-th non-forest edge (sorted)
    is negative exactly when bit ``i`` of the pattern index is set, as
    :func:`snlab.balance._at_bits` maps a pattern to its edges. Only the
    first (all-positive) signature is balanced: any negative non-forest
    edge closes a negative fundamental cycle with the positive forest.
    """
    free = g._cotree
    for pattern in range(1 << len(free)):
        yield SignedGraph(g, frozenset(_at_bits(free, pattern)))
