"""Shared fixtures: enumeration sweeps reused across test modules, a few
symmetric graphs, and the block decomposition that cycle structure is
checked against.

The expensive sweeps (connected catalogs with all signature
representatives) are session-scoped so the acceptance tests and the
property suites share one computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import snlab.theorems
from snlab import Graph, enumerate_connected, enumerate_signatures
from snlab.graphs import Edge, _norm_edge


def connected_graphs_upto(n_max, **filters):
    for n in range(1, n_max + 1):
        yield from enumerate_connected(n, cap=max(n_max, 8), **filters)


def signed_sweep(n_max, **filters):
    for g in connected_graphs_upto(n_max, **filters):
        for sg in enumerate_signatures(g):
            yield sg


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def cube() -> Graph:
    return Graph(8, frozenset((v, v ^ 1 << k) for v in range(8) for k in range(3)
                              if v < v ^ 1 << k))


def petersen() -> Graph:
    return Graph(10, frozenset(
        [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))


# ---------------------------------------------------------------------------
# blocks (maximal 2-connected subgraphs and bridges): Tarjan's decomposition,
# the reference the cycle structure read off the spanning forest is checked
# against

@dataclass(frozen=True)
class Block:
    vertices: frozenset[int]
    edges: frozenset[Edge]

    def contains_cycle(self) -> bool:
        return len(self.edges) >= len(self.vertices)


def blocks(g: Graph) -> list[Block]:
    """Block decomposition; every edge belongs to exactly one block.

    Isolated vertices belong to no block. Deterministic order (by sorted
    edge lists).
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    timer = 0
    estack: list[Edge] = []
    found: list[list[Edge]] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(g.neighbors(root)))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        comp = []
                        while True:
                            e = estack.pop()
                            comp.append(e)
                            if e == (u, v):
                                break
                        found.append(comp)
                continue
            if w == parent[v]:
                continue
            if disc[w] == -1:
                parent[w] = v
                estack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, iter(g.neighbors(w))))
            elif disc[w] < disc[v]:
                estack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
    out = []
    for comp in found:
        es = frozenset(_norm_edge(u, v) for u, v in comp)
        vs = frozenset(v for e in es for v in e)
        out.append(Block(vs, es))
    out.sort(key=lambda b: sorted(b.edges))
    return out


@pytest.fixture(scope="session")
def graphs_upto_6():
    return list(connected_graphs_upto(6))


@pytest.fixture(scope="session")
def graphs_upto_7():
    return list(connected_graphs_upto(7))


@pytest.fixture(scope="session")
def signed_upto_5():
    return list(signed_sweep(5))


@pytest.fixture(scope="session")
def signed_upto_6():
    return list(signed_sweep(6))


@pytest.fixture(scope="session")
def unicyclic_graphs_upto_9():
    """All connected unicyclic graphs with n <= 9."""
    out = []
    for n in range(3, 10):
        out.extend(g for g in enumerate_connected(n, max_c=1, cap=9)
                   if len(g.edges) == n)
    return out


@pytest.fixture(scope="session")
def unicyclic_signed_upto_9(unicyclic_graphs_upto_9):
    """All (graph, signature) pairs on connected unicyclic graphs n <= 9."""
    out = []
    for g in unicyclic_graphs_upto_9:
        out.extend(enumerate_signatures(g))
    return out


# Wrong nullity values for three classes of the n <= 3 campaign, keyed by
# (n, edge count, negative edge count):
#   K2   bounds [0, 0], eta -1: below the bounds and at slack 1
#   P3   bounds [1, 1], eta 3: above the bounds
#   C3+  bounds [0, 3], eta 3: within the bounds but at the upper bound,
#        which the predicate (odd cycle) denies
WRONG_NULLITY = {(2, 1, 0): -1, (3, 2, 0): 3, (3, 3, 0): 3}


@pytest.fixture
def wrong_nullity(monkeypatch):
    """Make the campaign see ``WRONG_NULLITY`` instead of the true values.

    The scan reads every class's nullity from the table
    ``theorems._etas(g)`` returns, ``eta + 1`` at the class's pattern,
    whose set bits are its negative edges, then a sentinel 0. The wrapper
    writes the wrong values into that table, class by class; the sentinel
    is left as it is.
    """
    real_etas = snlab.theorems._etas

    def etas(g):
        table = real_etas(g)
        for pattern in range(len(table) - 1):
            key = (g.n, len(g.edges), pattern.bit_count())
            if key in WRONG_NULLITY:
                table[pattern] = WRONG_NULLITY[key] + 1
        return table

    monkeypatch.setattr(snlab.theorems, "_etas", etas)
