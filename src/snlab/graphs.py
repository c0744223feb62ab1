"""Simple undirected graphs, signed graphs, and structural invariants.

Vertices are the integers ``0 .. n-1``. Edges are unordered pairs stored as
``(u, v)`` with ``u < v``; a signed graph is its underlying graph plus the
set of its negative edges. Everything here is immutable after construction
and safe to share between workers; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import StructureError

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class _cached:
    """Like :func:`functools.cached_property`, without its lock: a non-data
    descriptor whose first access computes the value and stores it in the
    instance ``__dict__``, where later lookups find it first."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.func.__name__, self.func(obj))


def _strip_pendants(adj) -> tuple[list[bool], int]:
    """Strip pendant pairs off the graph with adjacency lists ``adj``:
    ``(alive, isolated)``.

    Repeatedly deletes a degree-1 vertex together with its neighbour; a
    vertex left without neighbours (or without any to begin with) is
    deleted too and counted in ``isolated``. ``alive[v]`` tells whether
    ``v`` survived.
    """
    deg = [len(b) for b in adj]
    alive = [True] * len(adj)
    isolated = 0
    todo = [v for v in range(len(adj) - 1, -1, -1) if deg[v] <= 1]
    while todo:
        u = todo.pop()
        if not alive[u]:
            continue
        alive[u] = False
        if deg[u] == 0:
            isolated += 1
            continue
        for v in adj[u]:
            if alive[v]:
                break
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] <= 1:
                    todo.append(w)
    return alive, isolated


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            norm.add(_norm_edge(u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Graph":
        """The graph whose upper triangle, read column by column ((0,1),
        (0,2), (1,2), (0,3), ...) with the first pair as the most
        significant bit, is ``bits``; this is graph6's order."""
        k = n * (n - 1) // 2
        if n < 0 or not 0 <= bits < 1 << k:
            raise ValueError(f"{bits} does not fit the {k} pairs of {n} vertices")
        # one pass over the binary digits: testing each bit of a long
        # integer with a shift would take time quadratic in the pairs
        digits = iter(f"{bits:0{k}b}")
        edges = frozenset([(i, j) for j in range(1, n) for i in range(j)
                           if next(digits) == "1"])
        # in range and normalized as built, so the instance skips the checks
        # of __post_init__: 3.0 of 6.9 us per n = 7 decode (2-core Xeon)
        g = object.__new__(cls)
        vars(g).update(n=n, edges=edges)
        return g

    @property
    def bits(self) -> int:
        """The inverse of :meth:`from_bits`, one digit per pair, uncached."""
        digits = bytearray(b"0" * (self.n * (self.n - 1) // 2))
        for u, v in self.edges:
            digits[v * (v - 1) // 2 + u] = 49  # ord("1")
        return int(digits or b"0", 2)

    @_cached
    def _adj(self) -> tuple[Sequence[int], ...]:
        """Ascending neighbour lists, each sorted on its own: short lists
        of integers sort faster than the edge tuples.

        Each list is ``bytes`` when every vertex fits in a byte (n <= 256),
        a tuple otherwise. Bytes hold no references, so the garbage
        collector neither tracks nor counts them: a graph kept with its
        cached state adds one collectable object here instead of n + 1,
        and a batch of graphs triggers a few collections instead of one
        every couple of dozen graphs."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for b in nbrs:
            b.sort()
        return tuple(map(bytes if self.n <= 256 else tuple, nbrs))

    @_cached
    def _forest(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The canonical BFS spanning forest ``(parent, order)``, one BFS per
        graph: each component is rooted at its smallest vertex
        (``parent[root] == -1``) and neighbours are visited in ascending
        order; ``order`` lists the vertices as visited, component by
        component."""
        parent = [-2] * self.n  # -2 until the BFS reaches the vertex
        order: list[int] = []
        adj = self._adj
        for root in range(self.n):
            if parent[root] != -2:
                continue
            parent[root] = -1
            queue = [root]
            for v in queue:  # the loop reads what it appends: a BFS queue
                for w in adj[v]:
                    if parent[w] == -2:
                        parent[w] = v
                        queue.append(w)
            order += queue
        return tuple(parent), tuple(order)

    @_cached
    def _cotree(self) -> tuple[Edge, ...]:
        """The non-forest edges of :attr:`_forest`, sorted, found once per
        graph; see :func:`cotree_edges`."""
        parent = self._forest[0]
        return tuple(sorted([e for e in self.edges
                             if parent[e[0]] != e[1] and parent[e[1]] != e[0]]))

    @_cached
    def pendant_core(self) -> tuple[tuple[int, ...], int, int]:
        """What is left after stripping pendant pairs: ``(pos, k, isolated)``.

        See :func:`_strip_pendants`. The ``k`` survivors form a graph with
        no vertex of degree 0 or 1; ``pos[v]`` is the index of ``v`` among
        them, or -1 when ``v`` was deleted. Signs play no part, so one core
        serves every signature of the graph.
        """
        alive, isolated = _strip_pendants(self._adj)
        pos = [-1] * self.n
        k = 0
        for v in range(self.n):
            if alive[v]:
                pos[v] = k
                k += 1
        return tuple(pos), k, isolated

    @_cached
    def _disjoint_cycles(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """The fundamental cycles as vertex tuples, the ``i``-th the forest
        path closed by cotree edge ``i``, or None when two share a vertex
        (see :func:`cycles_pairwise_vertex_disjoint`, which returns them as
        :class:`Cycle` objects); marking stops at the first vertex marked
        twice."""
        marked = [False] * self.n
        paths = []
        for path in _forest_paths(self, self._cotree):
            for w in path:
                if marked[w]:
                    return None
                marked[w] = True
            paths.append(tuple(path))
        return tuple(paths)

    @_cached
    def _matched(self) -> bool:
        """:func:`snlab.matching.contraction_matched`, once per graph.

        Each cycle contracts to its first vertex, the image of all its
        vertices; any other vertex is its own image. The contracted
        multigraph keeps one edge per edge of the graph between two
        images, so a doubled edge counts twice: it is a forest exactly when
        its edges number its vertices, ``n - sum(len(C) - 1)``, less the
        components. Its edges are then the images of the canonical
        forest's edges between two images (a cycle holds the forest path
        it closes), and the forest's reversed BFS order reaches the
        children of each contracted vertex before its edge to its parent.
        Matching a vertex to its parent whenever both are free, in that
        order, gives a maximum matching of a forest; one pass matches the
        tree and one the tree without its cyclic vertices, held as taken.
        """
        cycles = self._disjoint_cycles
        if cycles is None:
            raise StructureError("cycles are not pairwise vertex-disjoint")
        image = list(range(self.n))
        for cyc in cycles:
            for v in cyc:
                image[v] = cyc[0]
        edges = 0
        for u, v in self.edges:
            edges += image[u] != image[v]
        if edges != (self.n - sum(len(c) - 1 for c in cycles)
                     - num_components(self)):
            raise StructureError("contraction did not produce an acyclic graph")
        parent, order = self._forest
        sizes = []
        for taken in ((), [cyc[0] for cyc in cycles]):
            free = [True] * self.n
            for a in taken:
                free[a] = False
            size = 0
            for v in reversed(order):
                if parent[v] != -1:
                    a, b = image[v], image[parent[v]]
                    if a != b and free[a] and free[b]:
                        free[a] = free[b] = False
                        size += 1
            sizes.append(size)
        return sizes[0] == sizes[1]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph({self.n}, {self.sorted_edges()})"


@dataclass(frozen=True)
class SignedGraph:
    """A graph together with a signature, stored as its set of negative
    edges.

    ``negatives`` is a frozenset of normalized edges ``(u, v)``, ``u < v``,
    of the underlying graph; every other edge is positive. A switching
    class is then a set of negative edges over a fixed graph, which is how
    :func:`snlab.generation.enumerate_signatures` builds its
    representatives. :meth:`with_signs` validates a full sign map.
    """

    graph: Graph
    negatives: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(self, "negatives", frozenset(self.negatives))
        if not self.negatives <= self.graph.edges:
            raise ValueError("negative edges not in graph: "
                             f"{sorted(self.negatives - self.graph.edges)}")

    @classmethod
    def with_signs(cls, graph: Graph, signs: Mapping[Edge, int]) -> "SignedGraph":
        """The signed graph with sign ``signs[e]`` on each edge ``e``; every
        sign must be +1 or -1 and the keys, in either orientation, exactly
        the graph's edges."""
        for s in signs.values():
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s!r}")
        norm = {_norm_edge(u, v): s for (u, v), s in signs.items()}
        if len(norm) != len(signs) or norm.keys() != graph.edges:
            raise ValueError("sign map domain must equal the edge set, "
                             "each edge once")
        return cls(graph, frozenset(e for e, s in norm.items() if s == -1))

    @classmethod
    def all_positive(cls, graph: Graph) -> "SignedGraph":
        return cls(graph, frozenset())

    @classmethod
    def with_negatives(cls, graph: Graph, negatives: Iterable[Edge]) -> "SignedGraph":
        return cls(graph, frozenset(_norm_edge(u, v) for u, v in negatives))

    @property
    def signed_edges(self) -> tuple[tuple[int, int, int], ...]:
        """The sorted ``(u, v, sign)`` triples, one per edge."""
        return tuple((u, v, -1 if (u, v) in self.negatives else 1)
                     for u, v in sorted(self.graph.edges))

    def sign(self, u: int, v: int) -> int:
        """The sign of edge ``(u, v)``; ``KeyError`` for a non-edge."""
        e = _norm_edge(u, v)
        if e not in self.graph.edges:
            raise KeyError(e)
        return -1 if e in self.negatives else 1

    @property
    def n(self) -> int:
        return self.graph.n

    def negative_edges(self) -> list[Edge]:
        return sorted(self.negatives)

    def __repr__(self) -> str:
        return f"SignedGraph({self.graph!r}, negatives={self.negative_edges()})"


@dataclass(frozen=True)
class Cycle:
    """A simple cycle given by its vertices in cyclic order, length >= 3.

    Stored in canonical rotation: minimum vertex first, then the smaller of
    its two cycle neighbors, so equal cycles compare equal.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        if len(vs) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("cycle vertices must be distinct")
        i = vs.index(min(vs))
        rot = vs[i:] + vs[:i]
        if rot[-1] < rot[1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        object.__setattr__(self, "vertices", rot)

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_list(self) -> list[Edge]:
        vs = self.vertices
        return [_norm_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def __repr__(self) -> str:
        return f"Cycle{self.vertices}"


def is_cycle_of(g: Graph, c: Cycle) -> bool:
    """True when consecutive vertices of ``c`` are adjacent in ``g``."""
    return all(g.has_edge(u, v) for u, v in c.edge_list())


def _forest_depth(g: Graph) -> list[int]:
    """Each vertex's distance from its root in the canonical forest."""
    parent, order = g._forest
    depth = [0] * g.n
    for v in order:
        if parent[v] != -1:
            depth[v] = depth[parent[v]] + 1
    return depth


def _forest_paths(g: Graph, pairs: Iterable[Edge]) -> Iterator[list[int]]:
    """For each ``(u, v)`` of ``pairs``, two vertices of one tree of the
    canonical spanning forest, the forest path from ``u`` to ``v``: it
    climbs from the deeper end until the ends meet."""
    parent, depth = g._forest[0], _forest_depth(g)
    for u, v in pairs:
        up, down = [u], [v]  # climbs from u, and from v, to their meeting
        while u != v:
            if depth[u] >= depth[v]:
                u = parent[u]
                up.append(u)
            else:
                v = parent[v]
                down.append(v)
        down.pop()  # the meeting vertex ends both climbs
        yield up + down[::-1]


def fundamental_cycle(g: Graph, u: int, v: int) -> Cycle:
    """The cycle that the non-forest edge (u, v) closes in the canonical
    spanning forest: the forest path from ``u`` to ``v``, closed by the
    edge."""
    if _norm_edge(u, v) not in g._cotree:
        raise ValueError(f"({u}, {v}) is not a non-forest edge of the graph")
    return Cycle(tuple(next(_forest_paths(g, [(u, v)]))))


def cotree_edges(g: Graph) -> list[Edge]:
    """Non-forest edges of the canonical spanning forest, sorted.

    Their count is the cycle-space dimension. They are found once per
    graph; each call returns a fresh list.
    """
    return list(g._cotree)


@dataclass(frozen=True)
class ContractionTree:
    """Result of contracting each (vertex-disjoint) cycle to a single vertex.

    ``origin[t]`` is either the original vertex an acyclic tree vertex came
    from, or the :class:`Cycle` a cyclic tree vertex stands for.
    ``cyclic_vertices`` indexes the latter kind.
    """

    tree: Graph
    cyclic_vertices: frozenset[int]
    origin: tuple[Union[int, Cycle], ...]


# ---------------------------------------------------------------------------
# subgraphs and deletion

def induced_subgraph(g, vs: Iterable[int]):
    """Subgraph induced on ``vs``, densely relabeled.

    Accepts a :class:`Graph` or :class:`SignedGraph` (signs restricted).
    Returns ``(subgraph, relabel)`` where ``relabel`` maps old vertex ids of
    the kept vertices to their new dense ids.
    """
    base = g.graph if isinstance(g, SignedGraph) else g
    keep = sorted(set(vs))
    for v in keep:
        if not (0 <= v < base.n):
            raise ValueError(f"vertex {v} out of range for n={base.n}")
    relabel = {v: i for i, v in enumerate(keep)}
    kept_edges = [(u, v) for u, v in base.edges if u in relabel and v in relabel]
    sub = Graph(len(keep), frozenset(_norm_edge(relabel[u], relabel[v])
                                     for u, v in kept_edges))
    if isinstance(g, SignedGraph):
        signs = {_norm_edge(relabel[u], relabel[v]): g.sign(u, v)
                 for u, v in kept_edges}
        return SignedGraph.with_signs(sub, signs), relabel
    return sub, relabel


def delete_vertices(g, vs: Iterable[int]):
    """``g`` minus the vertices ``vs`` and their incident edges.

    Same return convention as :func:`induced_subgraph`.
    """
    base = g.graph if isinstance(g, SignedGraph) else g
    drop = set(vs)
    for v in drop:
        if not (0 <= v < base.n):
            raise ValueError(f"vertex {v} out of range for n={base.n}")
    return induced_subgraph(g, set(range(base.n)) - drop)


# ---------------------------------------------------------------------------
# connectivity and cycle space

def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by
    smallest member; read off the canonical spanning forest, which is
    computed once per graph."""
    parent, order = g._forest
    comps: list[list[int]] = []
    for v in order:
        if parent[v] == -1:
            comps.append([])
        comps[-1].append(v)
    return [tuple(sorted(c)) for c in comps]


def num_components(g: Graph) -> int:
    return g._forest[0].count(-1)


def is_connected(g: Graph) -> bool:
    return num_components(g) == 1


def cycle_space_dim(g: Graph) -> int:
    """Dimension of the cycle space: |E| - |V| + number of components."""
    return len(g.edges) - g.n + num_components(g)


def pendant_vertices(g: Graph) -> tuple[int, ...]:
    return tuple(v for v in range(g.n) if g.degree(v) == 1)


def vertices_on_cycles(g: Graph) -> frozenset[int]:
    """Vertices lying on at least one cycle: those of the fundamental
    cycles. Every edge of a cycle C lies on the fundamental cycle of one of
    C's non-forest edges, since C is the sum of those fundamental cycles."""
    return frozenset(v for path in _forest_paths(g, g._cotree) for v in path)


def cycles_pairwise_vertex_disjoint(g: Graph):
    """Whether all cycles of ``g`` are pairwise vertex-disjoint.

    Decided on the fundamental cycles of the canonical spanning forest,
    one per non-forest edge. Every cycle is the sum (symmetric difference)
    of the fundamental cycles of its non-forest edges, and a sum of two or
    more pairwise vertex-disjoint cycles is disconnected, so when the
    fundamental cycles are pairwise disjoint they are all the cycles.
    Returns ``(True, cycles)``, sorted by vertices (their count is then the
    cycle-space dimension), or ``(False, None)``. The answer is computed
    once per graph; each call returns a fresh list.
    """
    cycles = g._disjoint_cycles
    if cycles is None:
        return False, None
    return True, sorted((Cycle(c) for c in cycles), key=lambda c: c.vertices)


def contract_cycles(g: Graph) -> ContractionTree:
    """Contract each cycle of ``g`` to a single cyclic vertex.

    Requires all cycles to be pairwise vertex-disjoint; raises
    :class:`StructureError` otherwise. The result is acyclic. This is the
    slow reference :func:`snlab.matching.contraction_matched` is tested
    against; that test builds no tree.
    """
    ok, cycles = cycles_pairwise_vertex_disjoint(g)
    if not ok:
        raise StructureError("cycles are not pairwise vertex-disjoint")
    # number the pieces in one ascending pass: a vertex off every cycle
    # starts one, and so does each cycle at its minimum vertex
    on_cycle = {v: cyc for cyc in cycles for v in cyc.vertices}
    tid = [0] * g.n
    origin: list[Union[int, Cycle]] = []
    for v in range(g.n):
        cyc = on_cycle.get(v)
        if cyc is None:
            tid[v] = len(origin)
            origin.append(v)
        elif v == cyc.vertices[0]:
            for w in cyc.vertices:
                tid[w] = len(origin)
            origin.append(cyc)
    tree = Graph(len(origin), frozenset(
        (tid[u], tid[v]) for u, v in g.edges if tid[u] != tid[v]))
    if cycle_space_dim(tree) != 0:
        raise StructureError("contraction did not produce an acyclic graph")
    cyclic = frozenset(i for i, p in enumerate(origin) if isinstance(p, Cycle))
    return ContractionTree(tree, cyclic, tuple(origin))


# ---------------------------------------------------------------------------
# small constructors, mostly for tests and the family generator

def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` pendant vertices."""
    return Graph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Graph(a.n + b.n, frozenset(a.edges) | shifted)
