"""Balance of signed graphs: cycle signs, switching, canonical forms.

A signed graph is balanced when every cycle has positive sign (product of
its edge signs). Switching at a vertex set flips the sign of every edge
with exactly one endpoint inside; it preserves all cycle signs and the
spectrum. Balance checks return evidence either way: a switching function
that makes everything positive, or a concrete negative cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Cycle, SignedGraph, fundamental_cycle, is_cycle_of


def cycle_sign(sg: SignedGraph, c: Cycle) -> int:
    """Product of the edge signs along ``c``; ``c`` must be a cycle of the
    graph."""
    if not is_cycle_of(sg.graph, c):
        raise ValueError(f"{c!r} is not a cycle of the graph")
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
    mu = [1] * sg.n  # first the sign of each vertex's edge to its parent
    for u, v in sg.negatives:
        if parent[v] == u:
            mu[v] = -1
        elif parent[u] == v:
            mu[u] = -1
    for v in order:  # BFS order: a parent's product is final before its children
        p = parent[v]
        if p != -1:
            mu[v] *= mu[p]
    return mu


def _pattern(sg: SignedGraph) -> int:
    """The pattern of ``sg``'s switching class, its index in
    :func:`snlab.generation.enumerate_signatures`: bit ``i`` is set when the
    sign of cotree edge ``i`` disagrees with :func:`_forest_signing`, i.e.
    when the fundamental cycle it closes is negative; 0 iff balanced.
    Computed once per signed graph and kept in its ``__dict__``, as
    :class:`Graph` keeps its cached state."""
    cache = vars(sg)
    if "_pattern" not in cache:
        mu = _forest_signing(sg)
        negatives = sg.negatives
        cache["_pattern"] = sum(1 << i for i, e in enumerate(sg.graph._cotree)
                                if (mu[e[0]] == mu[e[1]]) == (e in negatives))
    return cache["_pattern"]


def _at_bits(seq: Sequence, t: int) -> list:
    """The entries of the cotree-indexed ``seq`` at the set bits of ``t``,
    the inverse of :func:`_pattern` and its one map to edges: on ``g._cotree``,
    the negatives of class ``t``'s representative with a positive forest."""
    return [x for i, x in enumerate(seq) if t >> i & 1]


def is_balanced(sg: SignedGraph) -> BalanceResult:
    """Decide balance, returning verified evidence: the signs propagated
    over the canonical spanning forest switch every edge positive, or the
    cotree edge of the lowest bit of :func:`_pattern` closes a fundamental
    cycle of sign -1."""
    t = _pattern(sg)
    if t:
        (u, v), = _at_bits(sg.graph._cotree, t & -t)
        return BalanceResult(False, None, fundamental_cycle(sg.graph, u, v))
    return BalanceResult(True, tuple(_forest_signing(sg)), None)


def canonical_signature(sg: SignedGraph) -> SignedGraph:
    """Switching-equivalent representative with all forest edges positive,
    the one :func:`snlab.generation.enumerate_signatures` builds: its
    negative edges, :func:`_at_bits` of the cotree and :func:`_pattern`, hold
    the signs of the fundamental cycles, so two signed graphs on one graph
    are switching-equivalent iff their canonical signatures are equal.
    """
    g = sg.graph
    return SignedGraph(g, frozenset(_at_bits(g._cotree, _pattern(sg))))
