"""Maximum matchings: the blossom algorithm and a brute-force oracle.

Two independent routes to the matching number are kept on purpose. The
fast path strips pendant pairs and runs the blossom algorithm on the
pendant core that is left (never on a forest); the brute-force recursion
exists so tests can cross-check it on every small graph rather than
trusting a single implementation. Its one entry,
:func:`enumerate_maximum_matchings`, lists every maximum matching as a
sorted edge tuple, in sorted order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityError, StructureError
from .graphs import (Cycle, Edge, Graph, cycle_space_dim,
                     cycles_pairwise_vertex_disjoint, delete_vertices,
                     is_connected)

BRUTE_FORCE_EDGE_CAP = 24


# ---------------------------------------------------------------------------
# blossom algorithm (fast path)

def _blossom_pairs(adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching as a partner array (-1 for exposed vertices)."""
    n = len(adj)
    match = [-1] * n
    p = [-1] * n

    def lca(a: int, b: int, base: list[int]) -> int:
        used = set()
        a = base[a]
        while True:
            used.add(a)
            if match[a] == -1:
                break
            a = base[p[match[a]]]
        b = base[b]
        while b not in used:
            b = base[p[match[b]]]
        return b

    def mark_path(v: int, b: int, child: int, base: list[int],
                  blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            p[i] = -1
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle found; contract the blossom
                    curbase = lca(v, to, base)
                    blossom = [False] * n
                    mark_path(v, curbase, to, base, blossom)
                    mark_path(to, curbase, v, base, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    # greedy seed cuts down the number of augmentation phases
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            u = find_augmenting(v)
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv
    return match


def matching_number(g: Graph) -> int:
    """Size of a maximum matching: one edge per pendant pair stripped off
    (some maximum matching uses any given pendant edge; Karp and Sipser,
    1981) plus the blossom's answer on the pendant core, so forests need
    no blossom run."""
    pos, k, isolated = g.pendant_core
    stripped = (g.n - k - isolated) // 2
    if k == 0:
        return stripped
    core = tuple(tuple(pos[w] for w in g._adj[v] if pos[w] != -1)
                 for v in range(g.n) if pos[v] != -1)
    return stripped + sum(1 for v in _blossom_pairs(core) if v != -1) // 2


# ---------------------------------------------------------------------------
# brute force (oracle path)

def _all_matchings(g: Graph):
    """Yield every matching of ``g`` as a sorted edge tuple.

    Decides vertices in increasing order: the current vertex is either left
    unmatched or matched to a still-free higher neighbor, so each matching
    appears exactly once.
    """
    n = g.n
    adj = g._adj

    def rec(i: int, used: int, acc: tuple[Edge, ...]):
        while i < n and (used >> i) & 1:
            i += 1
        if i == n:
            yield acc
            return
        yield from rec(i + 1, used | (1 << i), acc)
        for j in adj[i]:
            if j > i and not (used >> j) & 1:
                yield from rec(i + 1, used | (1 << i) | (1 << j), acc + ((i, j),))

    yield from rec(0, 0, ())


def enumerate_maximum_matchings(g: Graph) -> list[tuple[Edge, ...]]:
    """All maximum matchings as sorted edge tuples, sorted."""
    if len(g.edges) > BRUTE_FORCE_EDGE_CAP:
        raise CapacityError(
            f"brute-force matching is capped at {BRUTE_FORCE_EDGE_CAP} edges, "
            f"got {len(g.edges)}")
    best: list[tuple[Edge, ...]] = []
    size = 0
    for m in _all_matchings(g):
        if len(m) > size:
            size = len(m)
            best = [m]
        elif len(m) == size:
            best.append(m)
    best.sort()
    return best


# ---------------------------------------------------------------------------
# matching statistics around the unique cycle of a unicyclic graph

def unique_cycle(g: Graph) -> Cycle:
    """The single cycle of a connected unicyclic graph."""
    if not is_connected(g) or cycle_space_dim(g) != 1:
        raise StructureError("expected a connected graph with exactly one cycle")
    # connected with cycle-space dimension 1: one non-forest edge, whose
    # fundamental cycle is the only cycle
    _, (cycle,) = cycles_pairwise_vertex_disjoint(g)
    return cycle


@dataclass(frozen=True)
class MatchingSets:
    """Counts of the matching families attached to the unique cycle.

    ``boundary_edges`` are the edges joining the cycle to the rest of the
    graph. ``num_max`` counts maximum matchings of the whole graph;
    ``num_max_offcycle`` those of the graph minus the cycle's vertices
    (equivalently, of the contraction tree minus its cyclic vertex);
    ``num_meeting_boundary`` and ``num_avoiding_boundary`` split ``num_max``
    by whether a matching uses a boundary edge.
    """

    boundary_edges: frozenset[Edge]
    num_max: int
    num_max_offcycle: int
    num_meeting_boundary: int
    num_avoiding_boundary: int


def matching_sets(g: Graph) -> MatchingSets:
    cyc = unique_cycle(g)
    on = set(cyc.vertices)
    boundary = frozenset(e for e in g.edges if (e[0] in on) != (e[1] in on))
    offcycle, _ = delete_vertices(g, cyc.vertices)
    maxima = enumerate_maximum_matchings(g)
    meeting = sum(1 for m in maxima if any(e in boundary for e in m))
    return MatchingSets(
        boundary_edges=boundary,
        num_max=len(maxima),
        num_max_offcycle=len(enumerate_maximum_matchings(offcycle)),
        num_meeting_boundary=meeting,
        num_avoiding_boundary=len(maxima) - meeting,
    )


def contraction_matched(g: Graph) -> bool:
    """Whether the cycle-contraction tree of ``g`` (whose cycles must be
    pairwise vertex-disjoint) and that tree minus its cyclic vertices have
    equal matching numbers; :func:`contract_cycles` is the reference.

    Decided once per graph, on its own canonical forest (see
    ``Graph._matched``), so the upper-bound predicate and the unicyclic
    classifier share it.
    """
    return g._matched


def even_cycle_matching_equivalence(g: Graph) -> tuple[bool, bool]:
    """Two equivalent statements about a unicyclic graph with an even cycle.

    Left: the contraction tree and the contraction tree minus its cyclic
    vertex have equal matching numbers. Right: the matching number of the
    graph splits as cycle part plus off-cycle part, and no maximum matching
    uses a cycle-boundary edge. Returns ``(left, right)``.
    """
    cyc = unique_cycle(g)
    if len(cyc) % 2 != 0:
        raise StructureError("expected an even cycle")
    left = contraction_matched(g)
    ms = matching_sets(g)
    offcycle, _ = delete_vertices(g, cyc.vertices)
    split = matching_number(g) == len(cyc) // 2 + matching_number(offcycle)
    right = split and ms.num_meeting_boundary == 0
    return left, right


def odd_cycle_matching_equivalence(g: Graph) -> tuple[bool, bool]:
    """Same as the even-cycle version, for odd cycles.

    Left: equal matching numbers of the contraction tree and the tree
    minus its cyclic vertex.
    Right: the matching number of the graph splits as cycle part plus
    off-cycle part. Returns ``(left, right)``.
    """
    cyc = unique_cycle(g)
    if len(cyc) % 2 == 0:
        raise StructureError("expected an odd cycle")
    left = contraction_matched(g)
    offcycle, _ = delete_vertices(g, cyc.vertices)
    right = matching_number(g) == len(cyc) // 2 + matching_number(offcycle)
    return left, right
