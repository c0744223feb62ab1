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

from .graphs import (Cycle, SignedGraph, cotree_edges, fundamental_cycle,
                     is_cycle_of)


def cycle_sign(sg: SignedGraph, c: Cycle) -> int:
    """Product of the edge signs along ``c``; ``c`` must be a cycle of the
    graph."""
    if not is_cycle_of(sg.graph, c):
        raise ValueError(f"{c!r} is not a cycle of the graph")
    s = 1
    for e in c.edge_list():
        s *= -1 if e in sg.negatives else 1
    return s


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
    mu = [1] * sg.n
    for v in order:
        p = parent[v]
        if p != -1:
            e = (p, v) if p < v else (v, p)
            mu[v] = mu[p] * (-1 if e in sg.negatives else 1)
    return mu


def is_balanced(sg: SignedGraph) -> BalanceResult:
    """Decide balance, returning verified evidence.

    Signs are propagated over the canonical spanning forest; the graph is
    balanced iff every non-forest edge agrees with the propagated signs.
    The switching function then positivizes every edge; otherwise the
    disagreeing edge closes a fundamental cycle of sign -1.
    """
    mu = _forest_signing(sg)
    for u, v in cotree_edges(sg.graph):
        if mu[u] * mu[v] * (-1 if (u, v) in sg.negatives else 1) == -1:
            return BalanceResult(
                False, None, fundamental_cycle(sg.graph, u, v))
    return BalanceResult(True, tuple(mu), None)


def canonical_signature(sg: SignedGraph) -> SignedGraph:
    """Switching-equivalent representative with all forest edges positive.

    Two signed graphs on the same underlying graph are switching-equivalent
    iff their canonical signatures are equal: the surviving negative edges
    sit on non-forest edges and encode exactly the signs of the fundamental
    cycles, which switching preserves.
    """
    mu = _forest_signing(sg)
    return switch(sg, [v for v in range(sg.n) if mu[v] == -1])
