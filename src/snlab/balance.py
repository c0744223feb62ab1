"""Balance of signed graphs: cycle signs, switching, canonical forms.

A signed graph is balanced when every cycle has positive sign (product of
its edge signs). Switching at a vertex set flips the sign of every edge
with exactly one endpoint inside; it preserves all cycle signs and the
spectrum. Balance checks return evidence either way: a switching function
that makes everything positive, or a concrete negative cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import Cycle, Edge, Graph, SignedGraph, is_cycle_of


def cycle_sign(sg: SignedGraph, c: Cycle) -> int:
    """Product of the edge signs along ``c``; ``c`` must be a cycle of the
    graph."""
    if not is_cycle_of(sg.graph, c):
        raise ValueError(f"{c!r} is not a cycle of the graph")
    s = 1
    for u, v in c.edge_list():
        s *= sg.sign(u, v)
    return s


def switch(sg: SignedGraph, flip: Iterable[int]) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in ``flip``."""
    inside = set(flip)
    for v in inside:
        if not (0 <= v < sg.n):
            raise ValueError(f"vertex {v} out of range for n={sg.n}")
    return SignedGraph(sg.graph, tuple(
        (u, v, -s if (u in inside) != (v in inside) else s)
        for u, v, s in sg.signed_edges))


def spanning_forest(g: Graph) -> tuple[list[int], list[int], set[Edge]]:
    """Canonical BFS spanning forest.

    Roots are the smallest vertex of each component, neighbors are visited
    in ascending order. Returns ``(parent, order, tree_edges)`` with
    ``parent[root] == -1``.
    """
    parent = [-1] * g.n
    seen = [False] * g.n
    order: list[int] = []
    tree_edges: set[Edge] = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        q = deque([root])
        while q:
            v = q.popleft()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
                    tree_edges.add((v, w) if v < w else (w, v))
                    q.append(w)
    return parent, order, tree_edges


def cotree_edges(g: Graph) -> list[Edge]:
    """Non-forest edges of the canonical spanning forest, sorted.

    Their count is the cycle-space dimension.
    """
    _, _, tree = spanning_forest(g)
    return sorted(g.edges - tree)


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of a balance check, with evidence.

    ``switching`` (balanced case) maps every vertex to +1 or -1 such that
    switching at the -1 set makes all edges positive. ``negative_cycle``
    (unbalanced case) is a concrete cycle of sign -1.
    """

    balanced: bool
    switching: Optional[tuple[int, ...]]
    negative_cycle: Optional[Cycle]


def _forest_signing(sg: SignedGraph) -> tuple[list[int], list[int], set[Edge]]:
    """Per-vertex signs making forest edges positive, plus the BFS parents
    and forest edges."""
    parent, order, tree = spanning_forest(sg.graph)
    mu = [1] * sg.n
    for v in order:
        p = parent[v]
        if p != -1:
            mu[v] = mu[p] * sg.sign(p, v)
    return mu, parent, tree


def _fundamental_cycle(parent: list[int], u: int, v: int) -> Cycle:
    """Cycle formed by the forest paths from ``u`` and ``v`` to their
    lowest common ancestor, closed by the edge (u, v)."""
    anc_u = [u]
    x = u
    while parent[x] != -1:
        x = parent[x]
        anc_u.append(x)
    pos = {w: i for i, w in enumerate(anc_u)}
    path_v = [v]
    x = v
    while x not in pos:
        x = parent[x]
        path_v.append(x)
    lca = x
    walk = anc_u[:pos[lca]] + [lca] + list(reversed(path_v[:-1]))
    return Cycle(tuple(walk))


def is_balanced(sg: SignedGraph) -> BalanceResult:
    """Decide balance, returning verified evidence.

    Signs are propagated over the canonical spanning forest; the graph is
    balanced iff every non-forest edge agrees with the propagated signs.
    The switching function then positivizes every edge; otherwise the
    disagreeing edge closes a fundamental cycle of sign -1.
    """
    mu, parent, tree = _forest_signing(sg)
    # signed_edges is sorted, so the non-forest edges come in cotree order
    for u, v, s in sg.signed_edges:
        if (u, v) not in tree and mu[u] * mu[v] * s == -1:
            return BalanceResult(False, None, _fundamental_cycle(parent, u, v))
    return BalanceResult(True, tuple(mu), None)


def canonical_signature(sg: SignedGraph) -> SignedGraph:
    """Switching-equivalent representative with all forest edges positive.

    Two signed graphs on the same underlying graph are switching-equivalent
    iff their canonical signatures are equal: the surviving negative edges
    sit on non-forest edges and encode exactly the signs of the fundamental
    cycles, which switching preserves.
    """
    mu, _, _ = _forest_signing(sg)
    return switch(sg, [v for v in range(sg.n) if mu[v] == -1])
