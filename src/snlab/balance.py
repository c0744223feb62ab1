"""Balance of signed graphs: cycle signs, switching, canonical forms.

A signed graph is balanced when every cycle has positive sign (product of
its edge signs). Switching at a vertex set flips the sign of every edge
with exactly one endpoint inside; it preserves all cycle signs and the
spectrum. Balance checks return evidence either way: a switching function
that makes everything positive, or a concrete negative cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (Cycle, Edge, SignedGraph, cotree_edges,
                     fundamental_cycle, is_cycle_of)


def cycle_sign(sg: SignedGraph, c: Cycle) -> int:
    """Product of the edge signs along ``c``; ``c`` must be a cycle of the
    graph."""
    if not is_cycle_of(sg.graph, c):
        raise ValueError(f"{c!r} is not a cycle of the graph")
    return _sign(sg, c)


def _sign(sg: SignedGraph, c: Cycle) -> int:
    """:func:`cycle_sign` of a ``c`` known to be a cycle of the graph."""
    return -1 if sum(e in sg.negatives for e in c.edge_list()) % 2 else 1


def switch(sg: SignedGraph, flip: Iterable[int]) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in ``flip``."""
    inside = set(flip)
    for v in inside:
        if not (0 <= v < sg.n):
            raise ValueError(f"vertex {v} out of range for n={sg.n}")
    cut = frozenset((u, v) for u, v in sg.graph.edges
                    if (u in inside) != (v in inside))
    return SignedGraph(sg.graph, sg.negatives ^ cut)


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


def _forest_signing(sg: SignedGraph) -> list[int]:
    """Per-vertex signs ``mu`` making every forest edge positive."""
    parent, order = sg.graph._forest
    flip = [False] * sg.n  # whether v's forest edge to its parent is negative
    for u, v in sg.negatives:
        if parent[v] == u:
            flip[v] = True
        elif parent[u] == v:
            flip[u] = True
    mu = [1] * sg.n
    for v in order:
        p = parent[v]
        if p != -1:
            mu[v] = -mu[p] if flip[v] else mu[p]
    return mu


def _disagreeing_edge(sg: SignedGraph) -> Optional[Edge]:
    """The first non-forest edge whose sign disagrees with the signs
    propagated over the canonical spanning forest, or None; the graph is
    balanced iff there is none."""
    mu = _forest_signing(sg)
    return next((e for e in cotree_edges(sg.graph)
                 if (mu[e[0]] == mu[e[1]]) == (e in sg.negatives)), None)


def is_balanced(sg: SignedGraph) -> BalanceResult:
    """Decide balance, returning verified evidence: the signs propagated
    over the canonical spanning forest switch every edge positive, or the
    edge :func:`_disagreeing_edge` finds closes a fundamental cycle of
    sign -1."""
    e = _disagreeing_edge(sg)
    if e is not None:
        return BalanceResult(False, None, fundamental_cycle(sg.graph, *e))
    return BalanceResult(True, tuple(_forest_signing(sg)), None)


def canonical_signature(sg: SignedGraph) -> SignedGraph:
    """Switching-equivalent representative with all forest edges positive.

    Two signed graphs on the same underlying graph are switching-equivalent
    iff their canonical signatures are equal: the surviving negative edges
    sit on non-forest edges and encode exactly the signs of the fundamental
    cycles, which switching preserves.
    """
    mu = _forest_signing(sg)
    return switch(sg, [v for v in range(sg.n) if mu[v] == -1])
