"""Executable forms of the verified statements about signed-graph nullity.

For a signed graph on n vertices with matching number m and cycle-space
dimension c, the nullity eta satisfies

    n - 2m - c  <=  eta  <=  n - 2m + 2c

and the slack s = (n - 2m + 2c) - eta is never exactly 1. This module
computes invariant records, decides when the upper bound is attained,
classifies unbalanced unicyclic graphs into the three nullity cases, runs
exhaustive verification campaigns over enumerated graphs, and constructs
the block family realizing every admissible slack value.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .balance import _at_bits, _pattern
from .errors import TheoremViolation
from .formats import graph6_encode, sgl_dumps
from .generation import (_LinearAction, _connected_catalog,
                         automorphism_generators, check_vertex_cap)
from .graphs import (Edge, Graph, SignedGraph, _forest_depth, cycle_space_dim,
                     is_connected)
from .linalg import _core_rows, eliminate_outside, nullity, rank_division_free
from .matching import contraction_matched, matching_number


@dataclass(frozen=True)
class InvariantRecord:
    """The spectral and structural invariants of one signed graph.

    ``lower``/``upper`` are the nullity bounds n-2m-c and n-2m+2c;
    ``s`` is the slack upper - eta.
    """

    n: int
    m: int
    c: int
    eta: int
    balanced: bool
    lower: int
    upper: int
    s: int

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def _dump_line(obj) -> str:
    """``obj`` as compact JSON with sorted keys, the form of every line of
    the JSON-lines outputs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _bounds(n: int, m: int, c: int) -> tuple[int, int]:
    """The nullity bounds ``(n - 2m - c, n - 2m + 2c)``."""
    return n - 2 * m - c, n - 2 * m + 2 * c


def _broken_laws(eta: int, lower: int, upper: int) -> list[str]:
    """The statements a nullity value breaks: the bounds, then the gap."""
    kinds = []
    if not lower <= eta <= upper:
        kinds.append("nullity bounds")
    if upper - eta == 1:
        kinds.append("slack-one gap")
    return kinds


def invariant_record(sg: SignedGraph, check: bool = True) -> InvariantRecord:
    """Compute all invariants; with ``check`` the bound and gap statements
    are asserted and a violation raises :class:`TheoremViolation` carrying
    the counterexample."""
    n, m, c = sg.n, matching_number(sg.graph), cycle_space_dim(sg.graph)
    lower, upper = _bounds(n, m, c)
    eta = nullity(sg)
    rec = InvariantRecord(n=n, m=m, c=c, eta=eta,
                          balanced=_pattern(sg) == 0,
                          lower=lower, upper=upper, s=upper - eta)
    broken = _broken_laws(eta, lower, upper) if check else []
    if broken:
        raise TheoremViolation(broken[0], rec.to_json_dict(), sgl_dumps([sg]))
    return rec


def _candidate(g: Graph) -> Optional[int]:
    """The pattern of the one class of ``g`` whose cycles each have the
    sign the upper bound asks for, or None when no class can attain it.

    A class attains iff ``g`` is connected, its cycles are disjoint, those
    of length 0 mod 4 positive and those of length 2 mod 4 negative (so
    none is odd), and its contraction tree is matched, which the caller
    tests (He et al., LAA 572, 2019). Disjoint cycle ``i`` holds cotree
    edge ``i`` and no other, so its sign is bit ``i`` of the pattern.
    """
    cycles = g._disjoint_cycles if is_connected(g) else None
    if cycles is None or any(len(cyc) % 2 for cyc in cycles):
        return None
    return sum(1 << i for i, cyc in enumerate(cycles) if len(cyc) % 4 == 2)


def attains_upper(sg: SignedGraph) -> bool:
    """Structural predicate equivalent to eta = n - 2m + 2c.

    True iff the class of ``sg`` is :func:`_candidate` and
    :func:`contraction_matched` holds. The caller compares against the
    independently computed nullity; this function never looks at it.
    """
    if not is_connected(sg.graph):
        raise ValueError("the upper-bound predicate needs a connected graph")
    t = _candidate(sg.graph)
    return t is not None and t == _pattern(sg) and contraction_matched(sg.graph)


def classify_unicyclic(sg: SignedGraph) -> int:
    """Predicted nullity offset relative to n - 2m for an unbalanced
    unicyclic signed graph: -1, +2, or 0.

    -1 when the cycle length is odd and the contraction tree keeps its
    matching number after deleting the cyclic vertex; +2 when the length is
    2 mod 4 under the same matching condition; 0 otherwise.
    """
    g = sg.graph
    if not is_connected(g) or cycle_space_dim(g) != 1:
        raise ValueError("expected a connected unicyclic graph")
    if _pattern(sg) == 0:
        raise ValueError("expected an unbalanced signature")
    (cyc,) = g._disjoint_cycles
    q = len(cyc)
    matched = contraction_matched(g)
    if q % 2 == 1 and matched:
        return -1
    if q % 4 == 2 and matched:
        return 2
    return 0


def unicyclic_case(offset: int) -> int:
    """Case number 1/2/3 for offsets -1/+2/0."""
    return {-1: 1, 2: 2, 0: 3}[offset]


# ---------------------------------------------------------------------------
# the extremal family

@dataclass(frozen=True)
class FamilyParams:
    """Block counts for the slack-realizing family.

    ``triangles``: balanced 3-cycles; ``hexagons``: unbalanced 6-cycles;
    ``tailed_squares``: balanced 4-cycles carrying a pendant edge, attached
    through the pendant end. At least one block is required.
    """

    triangles: int
    hexagons: int
    tailed_squares: int

    def __post_init__(self):
        if min(self.triangles, self.hexagons, self.tailed_squares) < 0:
            raise ValueError("block counts must be nonnegative")
        if self.triangles + self.hexagons + self.tailed_squares < 1:
            raise ValueError("at least one block is required")


def family_prediction(p: FamilyParams) -> InvariantRecord:
    """The invariant record of the family member, in closed form; only a
    hexagon carries a negative edge, so only hexagons unbalance it."""
    l1, l2, l3 = p.triangles, p.hexagons, p.tailed_squares
    n = 3 * l1 + 6 * l2 + 5 * l3 + 2
    m = l1 + 3 * l2 + 2 * l3 + 1
    c = l1 + l2 + l3
    eta = 2 * l2 + l3
    lower, upper = _bounds(n, m, c)
    return InvariantRecord(n=n, m=m, c=c, eta=eta, balanced=l2 == 0,
                           lower=lower, upper=upper, s=upper - eta)


def generate_family(p: FamilyParams) -> tuple[SignedGraph, InvariantRecord]:
    """Build the family member: a star center x with one bare pendant y0
    and one block hanging off each remaining star edge.

    Blocks attach through one of their vertices: a triangle or hexagon
    vertex directly, a tailed square through its pendant-edge endpoint.
    All edges are positive except one edge per hexagon.
    """
    signs: dict[Edge, int] = {(0, 1): 1}  # x = 0, y0 = 1
    nxt = 2
    # per block kind: count, ring length, tail length, sign of the ring's
    # first edge
    for count, ring, tail, first in ((p.triangles, 3, 0, 1),
                                     (p.hexagons, 6, 0, -1),
                                     (p.tailed_squares, 4, 1, 1)):
        for _ in range(count):
            # the star edge, the tail and the ring but its closing edge
            path = (0, *range(nxt, nxt + tail + ring))
            for e in zip(path, path[1:]):
                signs[e] = 1
            a = nxt + tail  # the ring's first vertex
            signs[(a, a + 1)] = first
            signs[(a, a + ring - 1)] = 1
            nxt += tail + ring

    g = Graph(nxt, frozenset(signs))
    return SignedGraph.with_signs(g, signs), family_prediction(p)


def slack_coverage(c: int) -> dict[int, FamilyParams]:
    """For every admissible slack s in [0, 3c] except 1, a parameter triple
    with exactly ``c`` blocks realizing it.

    Realized slack is 3*triangles + 2*tailed_squares; hexagons fill the
    remaining block count. The first (lexicographically smallest) witness
    per slack value is kept.
    """
    if c < 1:
        raise ValueError(f"cycle dimension must be at least 1, got {c}")
    out: dict[int, FamilyParams] = {}
    for l1 in range(c + 1):
        for l3 in range(c - l1 + 1):
            s = 3 * l1 + 2 * l3
            if s not in out:
                out[s] = FamilyParams(l1, c - l1 - l3, l3)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# verification campaigns

@dataclass
class CampaignReport:
    """Aggregated result of a verification sweep; the defaults are the
    empty report, and :meth:`merge` adds a later chunk's results to it.

    ``histogram`` counts slack values keyed by (n, c). ``violations`` holds
    one dict per record breaking the bounds or hitting slack 1 (expected
    empty: their existence would falsify the verified statements, so they
    are first-class data rather than exceptions). ``upper_check`` compares
    the structural upper-bound predicate against eta = upper on every
    connected graph.
    """

    config: dict = field(default_factory=dict)
    totals: dict = field(default_factory=lambda: {
        "graphs": 0, "signatures": 0, "source_skipped": 0})
    histogram: dict[tuple[int, int], dict[int, int]] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    upper_check: dict = field(default_factory=lambda: {
        "tested": 0, "predicate_true": 0, "agreements": 0,
        "disagreements": [], "skipped_disconnected": 0})

    def merge(self, part: CampaignReport) -> None:
        """Add the counts of ``part`` and append its lists after ours."""
        for key, value in part.totals.items():
            self.totals[key] += value
        for key, by_s in part.histogram.items():
            slot = self.histogram.setdefault(key, {})
            for s, cnt in by_s.items():
                slot[s] = slot.get(s, 0) + cnt
        self.violations += part.violations
        for key, value in part.upper_check.items():
            self.upper_check[key] += value  # a count, or the disagreements

    def to_json_dict(self) -> dict:
        hist = {f"{n},{c}": {str(s): cnt for s, cnt in sorted(by_s.items())}
                for (n, c), by_s in sorted(self.histogram.items())}
        return {"config": self.config, "totals": self.totals,
                "histogram": hist, "violations": self.violations,
                "upper_check": self.upper_check}

    @property
    def clean(self) -> bool:
        return not self.violations and not self.upper_check["disagreements"]


def _pattern_action(g: Graph, cotree: Sequence[Edge]) -> _LinearAction:
    """The generators of :func:`automorphism_generators` acting on
    ``g``'s cotree patterns.

    An automorphism maps the class whose one negative edge is ``e`` to the
    class whose one negative edge is the image of ``e``; its pattern is the
    set of fundamental cycles through that edge, which for a forest edge
    are those of the cotree edges with one end below it. A pattern is the
    XOR of the patterns of its negative edges, so the map is linear over
    GF(2). Below five cotree edges the action has no generators: on the
    catalogs for n = 6 and 7 (2-core Xeon), finding the group and building
    its tables took longer than ranking those at most 16 classes.
    """
    gens = automorphism_generators(g) if len(cotree) >= 5 else ()
    if not gens:
        return _LinearAction([])
    parent, order = g._forest
    below = [0] * g.n  # the cotree bits at an odd number of ends below v
    through = {}
    for j, (u, v) in enumerate(cotree):
        below[u] ^= 1 << j
        below[v] ^= 1 << j
        through[u, v] = 1 << j
    for v in reversed(order):
        if parent[v] != -1:
            below[parent[v]] ^= below[v]
            through[min(v, parent[v]), max(v, parent[v])] = below[v]
    return _LinearAction([[through[min(p[u], p[v]), max(p[u], p[v])]
                           for u, v in cotree] for p in gens])


def _attaining(g: Graph) -> Optional[int]:
    """The pattern of the one class of ``g`` that attains the upper bound,
    or None when no class can: :func:`_candidate`, when the contraction
    tree is matched."""
    t = _candidate(g)
    return t if t is not None and contraction_matched(g) else None


def _etas(g: Graph):
    """``eta + 1`` for each switching class of ``g``, indexed by its
    pattern, then a sentinel 0: a bytearray, or an ``array("L")`` from 255
    vertices on.

    Pattern ``t`` stands for the class whose negative edges are
    ``_at_bits(g._cotree, t)``, as :func:`enumerate_signatures` builds it.

    The nullity is ``isolated + k - rank`` of the ``k x k`` pendant core,
    as in :func:`nullity`. From one ranked pattern to the next the bits
    of their XOR change, so the core matrix follows by negating their
    entries in place. Once per block of ``2**low`` patterns
    :func:`eliminate_outside` eliminates the core outside ``inner``, the
    core indices the bits below ``low`` touch; inside a block only those
    bits change, and their entries patch the residual, so ``rank = pivots
    + rank(residual)``. ``low`` weighs one elimination of the core per
    ``2**low`` classes against one of the residual per class, each costing
    about its size cubed. The core is eliminated only in blocks with a
    pattern to rank, at the first of them.

    Automorphisms of ``g`` and negation (``A(G, -sigma) = -A(G, sigma)``)
    keep the nullity, so only the least pattern of each orbit under both is
    ranked, the next one being the next pattern whose entry is still 0 (the
    sentinel ends the search). Its eta goes to its orbit under
    :func:`automorphism_generators` (from five cotree edges on, see
    :func:`_pattern_action`) and to that of its negation ``t ^ odd``, in
    one pass: ``odd`` has the bits of the odd fundamental cycles, the
    cotree edges whose ends have depths of equal parity in the forest. It
    is the class of the all-negative signature, which every automorphism
    fixes, so the negation maps orbits onto orbits.
    """
    cotree = g._cotree
    size = (1 << len(cotree)) + 1
    etas = bytearray(size) if g.n < 255 else array("L", [0]) * size
    pos, k, isolated = g.pendant_core
    rows = _core_rows(g, frozenset())
    core_entry = [(pos[u], pos[v]) if pos[u] >= 0 and pos[v] >= 0 else None
                  for u, v in cotree]
    touched: set[int] = set()
    best = (k ** 3, 0, ())
    for low in range(1, len(cotree) + 1):
        touched.update(core_entry[low - 1] or ())
        cost = k ** 3 / 2 ** low + len(touched) ** 3
        if cost < best[0]:
            best = (cost, low, tuple(sorted(touched)))
    _, low, inner = best
    base = isolated + k
    at = {v: i for i, v in enumerate(inner)}
    action = _pattern_action(g, cotree)
    depth = _forest_depth(g)
    odd = sum(1 << j for j, (u, v) in enumerate(cotree)
              if (depth[u] ^ depth[v]) & 1 == 0)
    done = -1  # the last block whose core is eliminated outside inner
    t = last = 0
    while t < size - 1:
        flips = t ^ last
        while flips:
            i = (flips & -flips).bit_length() - 1
            flips &= flips - 1
            if core_entry[i] is not None:
                a, b = core_entry[i]
                old = rows[a][b]
                rows[a][b] = rows[b][a] = -old
                if t >> low == done:  # bit i is below low: a and b are inner
                    residual[at[a]][at[b]] -= 2 * scale[at[a]] * old
                    residual[at[b]][at[a]] -= 2 * scale[at[b]] * old
        if t >> low != done:
            done = t >> low
            pivots, residual, scale = eliminate_outside(rows, inner)
        eta = base - pivots - rank_division_free(residual)
        action.mark_orbit(t, etas, eta + 1, odd)
        t, last = etas.index(0, t + 1), t
    return etas


def _scan_graph(g: Graph, report: CampaignReport, emit: bool) -> str:
    """Add all switching classes of one underlying graph to ``report``;
    return their JSON lines with ``emit``, else ``""``.

    The bounds are computed once per graph and the nullities once in
    :func:`_etas`' table. The histogram counts each distinct value of the
    table at once. At most one class can attain the upper bound (see
    :func:`_attaining`), so on a connected graph the predicate agrees with
    ``eta == upper`` on every class whose eta is not the upper bound, but
    the attaining one, where it agrees iff its eta is. In both modes the
    classes are walked in pattern order only when a count shows a broken
    law or a disagreement, to give each such class its row, which one
    local function builds. An emitted line is ``_dump_line`` of the row,
    joined from text made once per graph: the row dumped once and cut at
    its ``balanced``, ``eta``, ``negatives`` and ``s``, so each distinct
    eta has its text before and after the negatives (pattern 0, balanced,
    its own head), and the negatives of the low ``c // 2`` and of the high
    pattern bits, two tables of ``2**(c // 2)`` and ``2**(c - c // 2)``.
    """
    n, m, c = g.n, matching_number(g), cycle_space_dim(g)
    lower, upper = _bounds(n, m, c)
    cotree = g._cotree
    connected = is_connected(g)
    total = 1 << c
    # None on a disconnected graph. Found before the table is built: the
    # other order raised verify --n-max 8's peak RSS from 22.0 to 22.6 MB
    # (2-core Xeon, Python 3.11)
    attaining = _attaining(g)
    etas = _etas(g)
    counts = {v: etas.count(v) for v in set(etas)}
    counts[0] -= 1  # the sentinel
    by_s = report.histogram.setdefault((n, c), {})
    for v, k in counts.items():
        if k:
            by_s[upper + 1 - v] = by_s.get(upper + 1 - v, 0) + k
    report.totals["graphs"] += 1
    report.totals["signatures"] += total
    up = report.upper_check
    up["tested" if connected else "skipped_disconnected"] += total
    agreements = total - counts.get(upper + 1, 0)
    if attaining is not None:
        agreements += 1 if etas[attaining] == upper + 1 else -1
    if connected:
        up["predicate_true"] += attaining is not None
        up["agreements"] += agreements
    bad = {v - 1 for v, k in counts.items() if k and _broken_laws(v - 1, lower, upper)}
    flagged = bad or (connected and agreements < total)
    if not (emit or flagged):
        return ""
    g6 = graph6_encode(g)
    def row(eta, s, balanced, negatives) -> dict:  # a class's row
        return {"graph6": g6, "negatives": negatives, **InvariantRecord(
            n, m, c, eta, balanced, lower, upper, s).to_json_dict()}
    text = ""
    if emit:
        # the row dumped with placeholders, cut at them in its key order
        line = _dump_line(row("\0eta", "\0s", "\0balanced", ["\0negatives"]))
        cut = []
        for key in ("balanced", "eta", "negatives", "s"):
            part, _, line = line.partition(json.dumps("\0" + key))
            cut.append(part)
        start, between, before, after = cut
        head = {v: f"{start}false{between}{v - 1}{before}" for v in counts}
        tail = {v: f"{after}{upper + 1 - v}{line}\n" for v in counts}
        # the negatives of every pattern of the low and of the high bits;
        # past pattern 2**half, a low text that is not empty ends in a comma
        half = c // 2
        low, high = [""], [""]
        for i, (u, v) in enumerate(cotree):
            bits = low if i < half else high
            bits += [f"{x},[{u},{v}]" if x else f"[{u},{v}]" for x in bits]
        opened = [x and x + "," for x in low]
        lines = [head[v] + x + y + tail[v] for j, y in enumerate(high)
                 for x, v in zip(opened if j else low,
                                 etas[j << half:(j + 1) << half])]
        lines[0] = f"{start}true{between}{etas[0] - 1}{before}{tail[etas[0]]}"
        text = "".join(lines)
    if not flagged:
        return text
    for t in range(total):
        eta = etas[t] - 1
        s = upper - eta
        predicate = t == attaining
        disagrees = connected and predicate != (eta == upper)
        if eta in bad or disagrees:
            r = row(eta, s, t == 0, [list(e) for e in _at_bits(cotree, t)])
            report.violations.extend({"kind": kind, **r}
                                     for kind in _broken_laws(eta, lower, upper))
            if disagrees:
                up["disagreements"].append({"predicate": predicate, **r})
    return text


def _scan_chunk(forms: Sequence[tuple[int, int]],
                emit: bool) -> tuple[CampaignReport, str]:
    """One chunk of the campaign, the graphs ``forms`` as ``(n, bits)``:
    its counts, and with ``emit`` its lines as one string. Each graph is
    built from its form only to be scanned. The benchmark's tracer hooks
    this name to collect the forked children's timings."""
    part = CampaignReport()
    text = "".join([_scan_graph(Graph.from_bits(*f), part, emit) for f in forms])
    return part, text


def _serve(chunks: Sequence[Sequence[tuple[int, int]]], emit: bool,
           fd: int) -> NoReturn:
    """The body of a forked child: scan ``chunks`` in order and pickle each
    result, or the exception that stopped the scan, into the pipe ``fd``;
    an exception that would not reach the parent intact goes as a
    ``RuntimeError`` with its repr. A result is released once written, so
    the child's memory does not grow with the chunks it has scanned. Ends
    the process: the parent's frames must not unwind here."""
    try:
        with open(fd, "wb") as out:
            for forms in chunks:
                try:
                    result = _scan_chunk(forms, emit)  # the module attribute, for the tracer
                except BaseException as exc:
                    result = exc
                try:
                    data = pickle.dumps(result)
                    if isinstance(result, BaseException):
                        pickle.loads(data)
                except Exception:
                    data = pickle.dumps(RuntimeError(repr(result)))
                out.write(data)
                out.flush()
                if isinstance(result, BaseException):
                    break
                del result, data
    finally:
        os._exit(0)


def _scan_chunks(chunks: Sequence[Sequence[tuple[int, int]]], emit: bool,
                 workers: int) -> Iterator[tuple[CampaignReport, str]]:
    """Yield :func:`_scan_chunk` of each chunk, in chunk order.

    Of ``W = min(workers, len(chunks))`` processes, this one scans chunks
    ``0, W, 2W, ...`` and forked child ``w`` chunks ``w, w + W, ...``,
    which it inherits, so no chunk is pickled; a child writes its results
    to its own pipe, read here in chunk order. A child's exception is
    raised again here; a child that ends without its result raises
    ``RuntimeError``. On exit, also when the consumer stops early, every
    child is killed and reaped.
    """
    width = min(workers, len(chunks))
    pids, pipes = [], []
    try:
        for w in range(1, width):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            try:  # the write end is the child's alone, also if fork fails
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    _serve(chunks[w::width], emit, fd)
                pids.append(pid)
            finally:
                os.close(fd)
        for i, forms in enumerate(chunks):
            if i % width == 0:
                yield _scan_chunk(forms, emit)
                continue
            try:
                result = pickle.load(pipes[i % width - 1])
            except EOFError:
                raise RuntimeError(f"campaign worker {i % width} ended "
                                   f"without chunk {i}") from None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for f in pipes:
            f.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def gap_scan(n_max: int, c_max: Optional[int] = None,
             source: Optional[Iterable[Graph]] = None,
             source_label: str = "internal", workers: int = 1,
             emit: Optional[Callable[[str], object]] = None) -> CampaignReport:
    """Sweep every (graph, signature) pair and test all statements at once.

    With no ``source``, all connected graphs with 1..n_max vertices are
    enumerated internally (one per isomorphism class); an explicit source
    supplies underlying graphs instead, filtered by n_max/c_max. Their
    ``(n, bits)`` forms are cut into chunks, four per worker, scanned in
    turn by this process and ``workers - 1`` forked children at most (see
    :func:`_scan_chunks`), which build each graph only to scan it; results
    merge in chunk order, so the report is identical for every worker
    count. With an ``emit`` sink, each chunk's text, one JSON line per class
    (see :func:`_scan_graph`), is passed to it in chunk order as the chunk
    arrives. A child holds one chunk's result and its pickle until read.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if c_max is not None and c_max < 0:
        raise ValueError(f"c_max must be nonnegative, got {c_max}")
    report = CampaignReport(config={
        "n_max": n_max, "c_max": c_max, "source": source_label,
        "emit_all": emit is not None})
    forms: list[tuple[int, int]] = []
    if source is None:
        # check the whole range before enumerating anything, so exceeding
        # the cap fails immediately instead of after the affordable part
        check_vertex_cap(n_max)
        for n in range(1, n_max + 1):
            forms.extend(_connected_catalog(n, c_max))
    else:
        for g in source:
            if g.n > n_max or (c_max is not None and cycle_space_dim(g) > c_max):
                report.totals["source_skipped"] += 1
                continue
            forms.append((g.n, g.bits))

    size = -(-len(forms) // (4 * workers)) or 1
    chunks = [tuple(forms[i:i + size]) for i in range(0, len(forms), size)]
    with contextlib.closing(_scan_chunks(chunks, emit is not None,
                                         workers)) as results:
        for part, text in results:
            report.merge(part)
            if emit is not None:
                emit(text)
    return report
