"""Shared fixtures: enumeration sweeps reused across test modules.

The expensive sweeps (connected catalogs with all signature
representatives) are session-scoped so the acceptance tests and the
property suites share one computation.
"""

from __future__ import annotations

import pytest

import snlab.theorems
from snlab import enumerate_connected, enumerate_signatures


def connected_graphs_upto(n_max, **filters):
    for n in range(1, n_max + 1):
        yield from enumerate_connected(n, cap=max(n_max, 8), **filters)


def signed_sweep(n_max, **filters):
    for g in connected_graphs_upto(n_max, **filters):
        for sg in enumerate_signatures(g):
            yield sg


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
        out.extend(enumerate_connected(n, unicyclic_only=True, cap=9))
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

    The scan reads every class's nullity from ``theorems._classes(g)``; a
    class is its pattern, whose set bits are its negative edges.
    """
    real_classes = snlab.theorems._classes

    def classes(g):
        for pattern, eta, attains in real_classes(g):
            key = (g.n, len(g.edges), pattern.bit_count())
            yield pattern, WRONG_NULLITY.get(key, eta), attains

    monkeypatch.setattr(snlab.theorems, "_classes", classes)
