"""Tests for invariant records, the structural predicates, the extremal
family and the verification campaign driver.

The heavy exhaustive statements (bounds, slack gap, predicate agreement,
trichotomy) also run inside the acceptance module at their contract sizes;
here they are exercised at module-test scale together with all edge cases
and error paths.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
from array import array

import pytest

import snlab.generation
import snlab.graphs
from snlab import (
    Cycle,
    FamilyParams,
    Graph,
    InvariantRecord,
    SignedGraph,
    TheoremViolation,
    attains_upper,
    classify_unicyclic,
    complete_graph,
    cycle_graph,
    cycle_space_dim,
    disjoint_union,
    family_prediction,
    gap_scan,
    generate_family,
    graph6_encode,
    induced_subgraph,
    invariant_record,
    nullity,
    num_components,
    path_graph,
    pendant_vertices,
    rank_exact,
    read_graph6,
    signed_adjacency,
    slack_coverage,
    star_graph,
    unicyclic_case,
    vertices_on_cycles,
    write_graph6,
)
from conftest import (WRONG_NULLITY, complete_bipartite, connected_graphs_upto,
                      cube, petersen, signed_sweep)
from snlab.balance import _pattern, cycle_sign, is_balanced
from snlab.formats import graph6_decode
from snlab.generation import (automorphism_generators, canonical_form,
                              enumerate_connected, enumerate_signatures)
from snlab.graphs import _forest_depth, cotree_edges, fundamental_cycle, is_connected
from snlab.linalg import rank_division_free
from snlab.matching import contraction_matched
from snlab.theorems import (CampaignReport, _attaining, _dump_line, _etas,
                            _pattern_action)


@pytest.fixture
def forks(monkeypatch):
    """Make ``os.fork`` record the pid of every child it starts; yields
    the list of pids."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    yield pids


def assert_no_children() -> None:
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def scan_emitting(*args, **kwargs):
    """``gap_scan`` with a list as its ``emit`` sink: the report, and the
    texts the sink was given, one per chunk."""
    chunks: list[str] = []
    report = gap_scan(*args, emit=chunks.append, **kwargs)
    return report, chunks


def row_of(sg: SignedGraph, **wrong) -> dict:
    """The emitted row of one class, rebuilt from the one-off queries;
    ``wrong`` overrides the nullity and recomputes the slack."""
    rec = invariant_record(sg, check=False).to_json_dict()
    rec.update(wrong)
    rec["s"] = rec["upper"] - rec["eta"]
    return {"graph6": graph6_encode(sg.graph),
            "negatives": [list(e) for e in sg.negative_edges()], **rec}


def symmetric_graphs() -> list[Graph]:
    """Graphs with large automorphism groups; the last one's group swaps
    its two components."""
    wheel = Graph(7, cycle_graph(6).edges | {(v, 6) for v in range(6)})
    chorded = Graph(8, cycle_graph(8).edges | {(v, v + 4) for v in range(4)})
    return [cube(), petersen(), complete_bipartite(3, 3),
            complete_bipartite(4, 4), wheel, chorded,
            disjoint_union(complete_graph(4), complete_graph(4))]


def pattern_of(sg: SignedGraph) -> int:
    """The pattern of ``sg``'s switching class: the bits of the cotree
    edges whose fundamental cycles are negative."""
    return sum(1 << i for i, (u, v) in enumerate(cotree_edges(sg.graph))
               if cycle_sign(sg, fundamental_cycle(sg.graph, u, v)) == -1)


def reference_report(graphs: list[Graph], n_max: int) -> dict:
    """``gap_scan(n_max, source=graphs).to_json_dict()`` but for its
    config, built class by class from the one-off queries
    ``enumerate_signatures``, ``invariant_record`` and ``attains_upper``."""
    report = CampaignReport()
    up = report.upper_check
    for g in graphs:
        if g.n > n_max:
            report.totals["source_skipped"] += 1
            continue
        report.totals["graphs"] += 1
        for sg in enumerate_signatures(g):
            rec = invariant_record(sg, check=False)
            report.totals["signatures"] += 1
            by_s = report.histogram.setdefault((rec.n, rec.c), {})
            by_s[rec.s] = by_s.get(rec.s, 0) + 1
            row = row_of(sg)
            if not rec.lower <= rec.eta <= rec.upper:
                report.violations.append({"kind": "nullity bounds", **row})
            if rec.s == 1:
                report.violations.append({"kind": "slack-one gap", **row})
            if not is_connected(g):
                up["skipped_disconnected"] += 1
                continue
            predicate = attains_upper(sg)
            up["tested"] += 1
            up["predicate_true"] += predicate
            if predicate == (rec.s == 0):
                up["agreements"] += 1
            else:
                up["disagreements"].append({"predicate": predicate, **row})
    return report.to_json_dict()


def square_with_tail() -> Graph:
    return Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}))


class TestInvariantRecord:
    def test_unbalanced_hexagon(self):
        sg = SignedGraph.with_negatives(cycle_graph(6), [(0, 1)])
        rec = invariant_record(sg)
        assert (rec.n, rec.m, rec.c, rec.eta) == (6, 3, 1, 2)
        assert not rec.balanced
        assert (rec.lower, rec.upper, rec.s) == (-1, 2, 0)

    def test_path(self):
        rec = invariant_record(SignedGraph.all_positive(path_graph(4)))
        assert (rec.n, rec.m, rec.c, rec.eta) == (4, 2, 0, 0)
        assert rec.balanced
        assert (rec.lower, rec.upper, rec.s) == (0, 0, 0)

    def test_balanced_square(self):
        rec = invariant_record(SignedGraph.all_positive(cycle_graph(4)))
        assert (rec.eta, rec.s) == (2, 0)

    def test_balanced_triangle_slack(self):
        rec = invariant_record(SignedGraph.all_positive(cycle_graph(3)))
        assert (rec.eta, rec.upper, rec.s) == (0, 3, 3)

    def test_json_dict(self):
        rec = invariant_record(SignedGraph.all_positive(path_graph(2)))
        assert rec.to_json_dict() == {
            "n": 2, "m": 1, "c": 0, "eta": 0, "balanced": True,
            "lower": 0, "upper": 0, "s": 0}

    def test_json_dict_is_a_fresh_copy_of_the_fields(self):
        """It lists the eight fields in order, and ``row_of`` may mutate
        it without touching the record or a later call's result."""
        sg = SignedGraph.with_negatives(cycle_graph(6), [(0, 1)])
        rec = invariant_record(sg)
        first = rec.to_json_dict()
        assert list(first) == [f.name for f in dataclasses.fields(rec)]
        assert first == {f.name: getattr(rec, f.name)
                         for f in dataclasses.fields(rec)}
        assert first is not rec.to_json_dict()
        row_of(sg, eta=5)["n"] = 99
        first["eta"] = 7
        assert (rec.eta, rec.s) == (2, 0)
        assert rec.to_json_dict() == {
            "n": 6, "m": 3, "c": 1, "eta": 2, "balanced": False,
            "lower": -1, "upper": 2, "s": 0}

    def test_violation_exception_carries_evidence(self):
        exc = TheoremViolation("nullity bounds", {"n": 1}, "1\n")
        assert exc.kind == "nullity bounds"
        assert exc.record == {"n": 1}
        assert exc.sgl_text == "1\n"
        assert "nullity bounds" in str(exc)


class TestBoundsAndGapModuleScale:
    def test_exhaustive_upto_5(self, signed_upto_5):
        for sg in signed_upto_5:
            rec = invariant_record(sg)  # check=True raises on any violation
            assert rec.lower <= rec.eta <= rec.upper
            assert rec.s != 1
            assert 0 <= rec.s <= 3 * rec.c

    def test_balanced_matches_unsigned_nullity(self, signed_upto_5):
        for sg in signed_upto_5:
            rec = invariant_record(sg)
            if rec.balanced:
                assert rec.eta == nullity(SignedGraph.all_positive(sg.graph))


class TestAttainsUpper:
    def test_examples(self):
        assert attains_upper(SignedGraph.all_positive(cycle_graph(4)))
        assert attains_upper(SignedGraph.with_negatives(cycle_graph(6), [(0, 1)]))
        assert not attains_upper(SignedGraph.all_positive(cycle_graph(6)))
        assert not attains_upper(SignedGraph.all_positive(cycle_graph(3)))
        assert not attains_upper(SignedGraph.with_negatives(cycle_graph(4), [(0, 1)]))
        # forests always attain the bound: eta = n - 2m and c = 0
        assert attains_upper(SignedGraph.all_positive(Graph(1, frozenset())))
        assert attains_upper(SignedGraph.all_positive(path_graph(4)))

    def test_theta_never_attains(self):
        theta = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)}))
        for sg in (SignedGraph.all_positive(theta),
                   SignedGraph.with_negatives(theta, [(0, 1)])):
            assert not attains_upper(sg)

    def test_requires_connected(self):
        sg = SignedGraph.all_positive(disjoint_union(cycle_graph(4), cycle_graph(4)))
        with pytest.raises(ValueError):
            attains_upper(sg)

    def test_iff_exhaustive_upto_6(self, signed_upto_6):
        for sg in signed_upto_6:
            rec = invariant_record(sg, check=False)
            assert attains_upper(sg) == (rec.eta == rec.upper)


class TestClassifyUnicyclic:
    def test_examples(self):
        assert classify_unicyclic(
            SignedGraph.with_negatives(cycle_graph(6), [(0, 1)])) == 2
        assert classify_unicyclic(
            SignedGraph.with_negatives(cycle_graph(5), [(0, 1)])) == -1
        square_pendant = Graph(5, frozenset(
            {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)}))
        assert classify_unicyclic(
            SignedGraph.with_negatives(square_pendant, [(0, 1)])) == 0

    def test_case_numbers(self):
        assert unicyclic_case(-1) == 1
        assert unicyclic_case(2) == 2
        assert unicyclic_case(0) == 3
        with pytest.raises(KeyError):
            unicyclic_case(5)

    def test_rejects_wrong_inputs(self):
        with pytest.raises(ValueError):
            classify_unicyclic(SignedGraph.all_positive(cycle_graph(5)))
        with pytest.raises(ValueError):
            classify_unicyclic(SignedGraph.all_positive(path_graph(4)))
        theta = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)}))
        with pytest.raises(ValueError):
            classify_unicyclic(SignedGraph.with_negatives(theta, [(0, 1)]))
        two = SignedGraph.with_negatives(
            disjoint_union(cycle_graph(3), cycle_graph(3)), [(0, 1)])
        with pytest.raises(ValueError):
            classify_unicyclic(two)

    def test_trichotomy_exhaustive(self, unicyclic_signed_upto_9):
        from snlab import is_balanced
        for sg in unicyclic_signed_upto_9:
            if is_balanced(sg).balanced:
                continue
            offset = classify_unicyclic(sg)
            assert offset in (-1, 0, 2)
            rec = invariant_record(sg, check=False)
            assert rec.eta == rec.n - 2 * rec.m + offset


def _record_graphs(count: int, seed: int, n_max: int = 40) -> list[SignedGraph]:
    """Random connected signed graphs with 12 to ``n_max`` vertices: a
    random labelled tree plus ``c`` (0-6) distinct extra edges, every edge
    signed at random, so the cycle-space dimension is exactly ``c``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, c = rng.randrange(12, n_max + 1), rng.randrange(7)
        label = list(range(n))
        rng.shuffle(label)
        edges = set()
        for i in range(1, n):
            u, v = label[i], label[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        while len(edges) < n - 1 + c:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        signs = {e: rng.choice((1, -1)) for e in sorted(edges)}
        out.append(SignedGraph.with_signs(Graph(n, frozenset(edges)), signs))
    return out


def _assert_forest_facts(sg: SignedGraph) -> None:
    """What the per-record queries read off the canonical forest, and the
    class pattern kept on the signed graph, against plain references: each
    depth walked up ``parent``, the cotree as the edges left when the
    forest's are removed, the component count by union-find over the
    edges, an empty core's nullity by Bareiss on the whole matrix, and
    ``pattern_of``."""
    g = sg.graph
    parent = g._forest[0]
    depth = _forest_depth(g)
    for v in range(g.n):
        u, walk = v, 0
        while parent[u] != -1:
            u, walk = parent[u], walk + 1
        assert depth[v] == walk, (g, v)
    forest = {(min(v, p), max(v, p)) for v, p in enumerate(parent) if p != -1}
    assert g._cotree == tuple(sorted(g.edges - forest)), g
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    roots = sum(find(v) == v for v in range(g.n))
    assert num_components(g) == roots == parent.count(-1)
    assert cycle_space_dim(g) == len(g.edges) - g.n + roots
    if g.pendant_core[1] == 0:
        assert nullity(sg) == g.n - rank_exact(signed_adjacency(sg)), sg
    t = _pattern(sg)
    assert vars(sg)["_pattern"] == t == pattern_of(sg) == _pattern(sg), sg


def _graphs_upto_6_relabelled(rng: random.Random):
    """Every graph with at most 6 vertices up to isomorphism, the disjoint
    unions of connected ones, each under a random relabelling."""
    catalog = list(connected_graphs_upto(6))

    def unions(start: int, acc: Graph):
        label = list(range(acc.n))
        rng.shuffle(label)
        yield Graph(acc.n, frozenset((label[u], label[v]) for u, v in acc.edges))
        for i in range(start, len(catalog)):
            if acc.n + catalog[i].n <= 6:
                yield from unions(i, disjoint_union(acc, catalog[i]))

    return list(unions(0, Graph(0)))


class TestPerRecordPath:
    """The per-record queries behind ``snlab invariants``/``classify`` on
    graphs far past the exhaustive sizes."""

    def test_predicates_agree_with_nullity_and_answers_are_pinned(self):
        answers = []
        unicyclic = 0
        for sg in _record_graphs(200, 20261018):
            rec = invariant_record(sg)
            attains = attains_upper(sg)
            assert attains == (rec.eta == rec.upper)
            offset = None
            if rec.c == 1 and not rec.balanced:
                offset = classify_unicyclic(sg)
                assert rec.eta == rec.n - 2 * rec.m + offset
                unicyclic += 1
            answers.append([rec.n, rec.m, rec.c, rec.eta, rec.balanced,
                            attains, offset])
        assert unicyclic >= 10
        assert sum(a[5] for a in answers) >= 10  # some attain the bound
        body = json.dumps(answers, separators=(",", ":"))
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "0e66e11601a8743e1de3f8f248c393bb4829e82d34bc1e4517eb6101c369495b")

    def test_record_answers_are_pinned_up_to_48_vertices(self):
        """The full answers of the per-record queries, the record's dict,
        ``attains_upper`` and the unicyclic offset, on 300 records with 12
        to 48 vertices, most with an empty pendant core; the digest was
        taken before the cached class pattern and the vertex-tuple cycles."""
        answers = []
        for sg in _record_graphs(300, 20261021, n_max=48):
            rec = invariant_record(sg)
            offset = (classify_unicyclic(sg) if rec.c == 1 and not rec.balanced
                      else None)
            answers.append([rec.to_json_dict(), attains_upper(sg), offset])
        assert sum(a[1] for a in answers) >= 30
        assert sum(a[2] is not None for a in answers) >= 10
        body = json.dumps(answers, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "0798af2c4b9f491c0b95173edfe12a53348c0e24c212909f1466a9598a2fe6c0")

    def test_no_graph_is_built(self, monkeypatch):
        """``attains_upper`` and ``classify_unicyclic`` decide the
        contraction test on the record's own graph: on fresh records that
        reach it they construct no ``Graph``."""
        # a positive square 0-3 and a negative hexagon 6-11, both joined to
        # vertex 4, which carries the pendant 5, the hexagon with the tail
        # 12-13; then a negative triangle with a tail
        two = SignedGraph.with_negatives(Graph(14, cycle_graph(4).edges | {
            (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (6, 11),
            (0, 4), (4, 5), (4, 6), (6, 12), (12, 13)}), [(6, 7)])
        one = SignedGraph.with_negatives(
            Graph(5, cycle_graph(3).edges | {(2, 3), (3, 4)}), [(0, 1)])
        built, matched = [], []
        post_init = Graph.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def counting_matched(g):
            matched.append(contraction_matched(g))
            return matched[-1]

        monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
        monkeypatch.setattr("snlab.theorems.contraction_matched", counting_matched)
        answers = attains_upper(two), classify_unicyclic(one)
        monkeypatch.undo()
        assert built == [] and matched == [True, True]
        assert answers == (True, -1)
        rec = invariant_record(two)
        assert rec.eta == rec.upper
        rec = invariant_record(one)
        assert rec.eta == rec.n - 2 * rec.m - 1

    def test_contraction_test_runs_once_per_graph(self, monkeypatch):
        """``attains_upper`` and ``classify_unicyclic`` share the verdict
        kept on the graph: a record that reaches both decides the
        contraction test once, on the canonical forest, without stripping
        pendants again."""
        # a negative hexagon with the tail 5-6-7
        sg = SignedGraph.with_negatives(
            Graph(8, cycle_graph(6).edges | {(5, 6), (6, 7)}), [(0, 1)])
        rec = invariant_record(sg)  # strips the pendant core first
        passes, decided = [], []
        strip = snlab.graphs._strip_pendants
        matched = vars(Graph)["_matched"]
        decide = matched.func

        def counting_strip(adj):
            passes.append(len(adj))
            return strip(adj)

        @functools.wraps(decide)  # the cache keys the entry by this name
        def counting_decide(g):
            decided.append(g)
            return decide(g)

        monkeypatch.setattr(snlab.graphs, "_strip_pendants", counting_strip)
        monkeypatch.setattr(matched, "func", counting_decide)
        answers = attains_upper(sg), classify_unicyclic(sg)
        monkeypatch.undo()
        assert passes == [] and len(decided) == 1 and decided[0] is sg.graph
        assert answers == (True, 2) and rec.eta == rec.upper

    def test_unbalanced_record_builds_no_cycle(self, monkeypatch):
        """``invariant_record`` reads only the balance verdict, so on an
        unbalanced record it builds no ``Cycle`` of evidence;
        ``attains_upper`` and ``classify_unicyclic`` read the disjoint
        cycles as vertex tuples, so they build none either."""
        # K4 with one negative edge, so two of its triangles are negative,
        # and a tail
        k4 = SignedGraph.with_negatives(
            Graph(6, complete_graph(4).edges | {(3, 4), (4, 5)}), [(0, 1)])
        # a negative triangle with a tail; a positive square and a negative
        # hexagon joined through vertex 4 (see test_no_graph_is_built)
        one = SignedGraph.with_negatives(
            Graph(5, cycle_graph(3).edges | {(2, 3), (3, 4)}), [(0, 1)])
        two = SignedGraph.with_negatives(Graph(14, cycle_graph(4).edges | {
            (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (6, 11),
            (0, 4), (4, 5), (4, 6), (6, 12), (12, 13)}), [(6, 7)])
        built = []
        post_init = Cycle.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Cycle, "__post_init__", counting_post_init)
        rec = invariant_record(k4)
        answers = (attains_upper(k4), attains_upper(one), classify_unicyclic(one),
                   attains_upper(two))
        monkeypatch.undo()
        assert built == [] and not rec.balanced
        assert answers == (False, False, -1, True)
        assert not is_balanced(k4).balanced

    def test_balance_verdict_equals_is_balanced_on_small_signatures(
            self, signed_upto_5):
        """Also equal to "every fundamental cycle is positive", by the
        checked ``cycle_sign``."""
        verdicts = set()
        for sg in signed_upto_5:
            result = is_balanced(sg)
            t = _pattern(sg)
            assert (t == 0) == result.balanced == all(
                cycle_sign(sg, fundamental_cycle(sg.graph, u, v)) == 1
                for u, v in cotree_edges(sg.graph))
            if t:  # the evidence is the cycle its lowest bit's edge closes
                edge = cotree_edges(sg.graph)[(t & -t).bit_length() - 1]
                assert edge in result.negative_cycle.edge_list()
            verdicts.add(result.balanced)
        assert verdicts == {True, False}

    def test_pattern_equals_fundamental_cycle_signs(self):
        """On every signature of every connected graph with n <= 5, not
        only the class representatives, ``_pattern`` equals the reference
        ``pattern_of``; on the representatives it is their index in
        ``enumerate_signatures``."""
        for g in connected_graphs_upto(5):
            edges = g.sorted_edges()
            for bits in range(1 << len(edges)):
                sg = SignedGraph(g, {e for i, e in enumerate(edges) if bits >> i & 1})
                assert _pattern(sg) == pattern_of(sg)
            assert [_pattern(sg) for sg in enumerate_signatures(g)] == list(
                range(1 << cycle_space_dim(g)))

    def test_fast_paths_equal_references_on_random_records(self):
        """On random records with n up to 48, the pattern equals
        ``pattern_of``, its zero test equals ``is_balanced``, and bit ``i``
        is the ``cycle_sign`` of disjoint cycle ``i``, the cycle through
        cotree edge ``i``."""
        balanced = disjoint = 0
        for sg in _record_graphs(500, 20261019, n_max=48):
            g = sg.graph
            t = _pattern(sg)
            assert t == pattern_of(sg)
            assert (t == 0) == is_balanced(sg).balanced
            balanced += t == 0
            if g._disjoint_cycles:  # None, or the cycles when disjoint
                disjoint += 1
                cotree = cotree_edges(g)
                for i, path in enumerate(g._disjoint_cycles):
                    cyc = Cycle(path)
                    assert cotree[i] in cyc.edge_list()
                    assert cycle_sign(sg, cyc) == (-1 if t >> i & 1 else 1)
        assert 50 <= balanced <= 450 and disjoint >= 50

    def test_forest_facts_equal_references_on_small_graphs(self):
        """See ``_assert_forest_facts``: on every graph with n <= 6,
        relabelled at random, with a random signature and the all-negative
        one."""
        rng = random.Random(20261020)
        graphs = _graphs_upto_6_relabelled(rng)
        # 1, 1, 2, 4, 11, 34 and 156 graphs on 0 to 6 vertices
        assert len(graphs) == len(set(map(canonical_form, graphs))) == 209
        for g in graphs:
            edges = g.sorted_edges()
            for negatives in ([e for e in edges if rng.random() < 0.5], edges):
                _assert_forest_facts(SignedGraph(g, frozenset(negatives)))
        assert sum(g.pendant_core[1] == 0 for g in graphs) >= 20
        assert sum(num_components(g) > 1 for g in graphs) >= 50

    def test_forest_facts_equal_references_on_random_records(self):
        """See ``_assert_forest_facts``: on the records of
        ``test_fast_paths_equal_references_on_random_records``, most of
        them with an empty pendant core."""
        records = _record_graphs(500, 20261019, n_max=48)
        for sg in records:
            _assert_forest_facts(sg)
        assert sum(sg.graph.pendant_core[1] == 0 for sg in records) >= 300


class TestPendantReduction:
    def test_type_one_step_preserves_slack(self, signed_upto_6):
        """Removing a pendant whose neighbor is off every cycle keeps the
        slack: the cycle structure is untouched and m drops by exactly 1."""
        for sg in signed_upto_6:
            g = sg.graph
            cyclic = vertices_on_cycles(g)
            if not cyclic:
                continue
            rec = invariant_record(sg, check=False)
            for u in pendant_vertices(g):
                (w,) = g.neighbors(u)
                if w in cyclic:
                    continue
                sub, _ = induced_subgraph(
                    sg, [x for x in range(g.n) if x not in (u, w)])
                sub_rec = invariant_record(sub, check=False)
                assert sub_rec.s == rec.s


class TestFamily:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            FamilyParams(-1, 1, 0)
        with pytest.raises(ValueError):
            FamilyParams(0, 0, 0)
        assert FamilyParams(0, 0, 1).tailed_squares == 1

    def test_prediction_formulas(self):
        assert family_prediction(FamilyParams(1, 0, 0)) == InvariantRecord(
            n=5, m=2, c=1, eta=0, balanced=True, lower=0, upper=3, s=3)
        assert family_prediction(FamilyParams(0, 1, 0)) == InvariantRecord(
            n=8, m=4, c=1, eta=2, balanced=False, lower=-1, upper=2, s=0)
        assert family_prediction(FamilyParams(0, 0, 1)) == InvariantRecord(
            n=7, m=3, c=1, eta=1, balanced=True, lower=0, upper=3, s=2)
        assert family_prediction(FamilyParams(1, 1, 1)) == InvariantRecord(
            n=16, m=7, c=3, eta=3, balanced=False, lower=-1, upper=8, s=5)

    def test_generated_matches_prediction(self):
        """All eight fields, on these members and every slack witness with
        c <= 3."""
        witnesses = [p for c in (1, 2, 3) for p in slack_coverage(c).values()]
        for params in [FamilyParams(1, 0, 0), FamilyParams(0, 1, 0),
                       FamilyParams(0, 0, 1), FamilyParams(2, 1, 1),
                       FamilyParams(0, 2, 3)] + witnesses:
            sg, pred = generate_family(params)
            assert invariant_record(sg) == pred == family_prediction(params)

    def test_generated_structure(self):
        from snlab import is_balanced, is_connected
        for params in (FamilyParams(1, 0, 0), FamilyParams(1, 2, 1)):
            sg, pred = generate_family(params)
            assert is_connected(sg.graph)
            assert cycle_space_dim(sg.graph) == pred.c
            assert is_balanced(sg).balanced == (params.hexagons == 0)
            negatives = sg.negative_edges()
            assert len(negatives) == params.hexagons

    def test_slack_coverage_witnesses(self):
        cov = slack_coverage(1)
        assert cov == {0: FamilyParams(0, 1, 0),
                       2: FamilyParams(0, 0, 1),
                       3: FamilyParams(1, 0, 0)}
        assert slack_coverage(2)[5] == FamilyParams(1, 0, 1)

    def test_slack_coverage_complete_and_correct(self):
        for c in range(1, 5):
            cov = slack_coverage(c)
            assert set(cov) == set(range(3 * c + 1)) - {1}
            for s, params in cov.items():
                assert (params.triangles + params.hexagons
                        + params.tailed_squares) == c
                assert 3 * params.triangles + 2 * params.tailed_squares == s
                pred = family_prediction(params)
                assert pred.s == s and pred.c == c

    def test_slack_coverage_realized_exactly(self):
        """For small c, every witness's generated graph really has the
        claimed slack."""
        for c in (1, 2, 3):
            for s, params in slack_coverage(c).items():
                sg, _ = generate_family(params)
                rec = invariant_record(sg)
                assert rec.s == s and rec.c == c

    def test_slack_coverage_rejects_zero(self):
        with pytest.raises(ValueError):
            slack_coverage(0)


class TestGapScan:
    def test_small_scan_clean(self):
        report = gap_scan(5)
        assert report.clean
        assert report.totals["graphs"] == 31  # 1+1+2+6+21 connected classes
        assert report.violations == []
        assert report.upper_check["disagreements"] == []
        assert report.upper_check["tested"] == report.totals["signatures"]
        hist_total = sum(cnt for by_s in report.histogram.values()
                         for cnt in by_s.values())
        assert hist_total == report.totals["signatures"]
        for (n, c), by_s in report.histogram.items():
            assert 1 <= n <= 5
            for s in by_s:
                assert 0 <= s <= 3 * c and s != 1

    def test_worker_counts_agree(self):
        one = gap_scan(5, workers=1)
        three = gap_scan(5, workers=3)
        assert one.to_json_dict() == three.to_json_dict()

    def test_c_max_filter(self):
        report = gap_scan(6, c_max=1)
        assert all(c <= 1 for (_, c) in report.histogram)
        assert report.clean

    def test_explicit_source(self):
        source = [cycle_graph(4), path_graph(3),
                  disjoint_union(cycle_graph(3), path_graph(2)),
                  cycle_graph(8),  # dropped by n_max
                  Graph(7, frozenset({(0, 1)}))]  # kept: n=7, disconnected
        report = gap_scan(7, source=source, source_label="handmade")
        assert report.config["source"] == "handmade"
        assert report.totals["source_skipped"] == 1
        assert report.totals["graphs"] == 4
        # the two disconnected graphs (c = 1 and c = 0) skip the upper check
        assert report.upper_check["skipped_disconnected"] == 2 + 1
        assert report.clean

    def test_emit_all_records(self):
        report, chunks = scan_emitting(6)
        lines = "".join(chunks).splitlines()
        assert len(lines) == report.totals["signatures"]
        sample = json.loads(lines[0])
        for key in ("graph6", "negatives", "n", "m", "c", "eta",
                    "balanced", "lower", "upper", "s"):
            assert key in sample
        assert report.config["emit_all"] is True
        plain = gap_scan(6)
        assert plain.config["emit_all"] is False
        assert plain.to_json_dict() == {**report.to_json_dict(),
                                        "config": plain.config}

    @pytest.mark.parametrize("faults", ["none", "wrong_nullity"])
    def test_report_per_orbit_equals_per_class(self, faults, request):
        """Emitting the lines changes no count: report and emit mode give
        the same report on symmetric graphs, and also when wrong values
        make both walk a graph's classes for their rows."""
        if faults == "wrong_nullity":
            request.getfixturevalue("wrong_nullity")
            source, n_max = None, 4
        else:
            source, n_max = symmetric_graphs(), 10
        per_class, _ = scan_emitting(n_max, source=source)
        per_orbit = gap_scan(n_max, source=source)
        assert per_orbit.to_json_dict() == {**per_class.to_json_dict(),
                                            "config": per_orbit.config}
        assert per_orbit.clean == (faults == "none")

    @pytest.mark.parametrize("n_max, source", [(5, None), (10, symmetric_graphs())],
                             ids=["catalog", "symmetric"])
    def test_reports_equal_the_per_class_reference(self, n_max, source):
        """Both modes count from the scan's table; the reference counts
        class by class without it, on the symmetric graphs also on a
        disconnected one."""
        graphs = source or [g for n in range(1, n_max + 1)
                            for g in enumerate_connected(n)]
        expected = reference_report(graphs, n_max)
        for report in (gap_scan(n_max, source=source),
                       scan_emitting(n_max, source=source)[0]):
            assert report.to_json_dict() == {**expected, "config": report.config}

    def test_wide_table(self):
        """From 255 vertices on the table is an ``array("L")``. A path on
        260 vertices whose chords close disjoint cycles of lengths 4, 6 and
        8, the same with 260 isolated vertices, whose etas exceed 255, and
        K_{1,300} with a triangle on leaf 1 and a 4-cycle on leaf 2, a
        connected graph whose etas all exceed 255."""
        path = Graph(260, frozenset([(v, v + 1) for v in range(259)]
                                    + [(0, 3), (5, 10), (12, 19)]))
        star = Graph(306, star_graph(300).edges | {
            (1, 301), (1, 302), (301, 302), (2, 303), (303, 304), (304, 305),
            (2, 305)})
        graphs = [path, disjoint_union(path, Graph(260, frozenset())), star]
        assert all(isinstance(_etas(g), array) for g in graphs)
        assert list(_etas(star)) == [300, 300, 298, 298, 0]
        alone = gap_scan(306, source=[star])
        assert alone.clean
        assert alone.to_json_dict()["histogram"] == {"306,2": {"3": 2, "5": 2}}
        report, chunks = scan_emitting(520, source=graphs)
        lines = "".join(chunks).splitlines()
        classes = [sg for g in graphs for sg in enumerate_signatures(g)]
        assert len(lines) == len(classes) == 20
        for line, sg in zip(lines, classes):
            assert json.loads(line)["eta"] == nullity(sg)
        assert max(json.loads(line)["eta"] for line in lines) > 255
        assert report.clean
        plain = gap_scan(520, source=graphs)
        assert plain.to_json_dict() == {**report.to_json_dict(),
                                        "config": plain.config}
        assert plain.to_json_dict() == {**reference_report(graphs, 520),
                                        "config": plain.config}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gap_scan(0)
        with pytest.raises(ValueError):
            gap_scan(3, workers=0)

    def test_negative_c_max_rejected_for_both_sources(self):
        with pytest.raises(ValueError):
            gap_scan(4, c_max=-1)
        with pytest.raises(ValueError):
            gap_scan(4, c_max=-1, source=[path_graph(1)])

    def test_no_more_processes_than_chunks(self, forks):
        one, one_text = scan_emitting(3, workers=1)
        assert forks == []
        many, many_text = scan_emitting(3, workers=16)
        # four chunks: this process scans the first and forks three children
        assert len(many_text) == 4 and len(forks) == 3
        assert many.to_json_dict() == one.to_json_dict()
        # one text per chunk, given to the sink in chunk order
        assert "".join(many_text) == "".join(one_text)
        assert_no_children()

    def test_forked_merge_equals_one_worker(self, tmp_path, forks,
                                            wrong_nullity):
        """Chunks merge in order: counts add up and the lists (violations,
        disagreements, emitted lines) concatenate as one worker builds them.
        The wrong values of ``wrong_nullity`` put entries in every list."""
        graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
        graphs[2:2] = [cycle_graph(8), Graph(4, frozenset({(0, 1)}))]
        graphs += [disjoint_union(cycle_graph(3), path_graph(3)),
                   path_graph(9), disjoint_union(path_graph(2), path_graph(2))]
        path = tmp_path / "mixed.g6"
        write_graph6(graphs, str(path))
        (one, one_text), (four, four_text) = (
            scan_emitting(6, source=read_graph6(str(path)), workers=w)
            for w in (1, 4))
        assert len(forks) == 3 and len(four_text) == 12  # 34 kept, 3 a chunk
        assert four.to_json_dict() == one.to_json_dict()
        assert "".join(four_text) == "".join(one_text)
        assert one.totals["source_skipped"] == 2
        assert one.upper_check["skipped_disconnected"] == 1 + 2 + 1
        assert len(one.violations) == 3
        assert len(one.upper_check["disagreements"]) == 3
        assert_no_children()

    def test_empty_source_forks_nothing(self, forks):
        report = gap_scan(3, source=[], workers=4)
        assert forks == [] and report.totals["graphs"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_graph_outlives_the_scan(self, monkeypatch, workers):
        """With a fresh catalog cache, ``gap_scan(6)`` leaves no ``Graph``
        alive that it built, neither a scanned graph nor a parent of the
        catalog, and the cache holds only ``(n, bits)`` integer pairs."""
        catalog = functools.lru_cache(maxsize=None)(
            snlab.generation._connected_catalog.__wrapped__)
        monkeypatch.setattr(snlab.generation, "_connected_catalog", catalog)
        monkeypatch.setattr(snlab.theorems, "_connected_catalog", catalog)

        def graphs():
            gc.collect()
            return {id(o) for o in gc.get_objects() if isinstance(o, Graph)}

        before = graphs()
        report = gap_scan(6, workers=workers)
        assert report.totals["graphs"] == 143 and report.clean
        assert graphs() <= before
        assert catalog.cache_info().currsize == 6
        for n in range(1, 7):
            assert all(type(n_) is type(bits) is int
                       for n_, bits in catalog(n, None))

    def test_memory_does_not_grow_with_the_catalog(self):
        """Past the vertex cap at bounded c (4,298 graphs with n <= 9 and
        c <= 3), the peak RSS of a fresh interpreter grows by less than
        5 MB over that of ``gap_scan(4)``: the catalog keeps integers, and
        each graph with its cached state is let go after its scan (the
        growth read 11.1 MB while the catalog kept its graphs)."""
        src = os.path.dirname(os.path.dirname(snlab.theorems.__file__))
        code = ("import resource\nfrom snlab import gap_scan\n"
                "def peak():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "gap_scan(4)\nbefore = peak()\n"
                "assert gap_scan(9, c_max=3).clean\nprint(peak() - before)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src,
                             "SNLAB_CAPACITY_OVERRIDE": "9"})
        assert int(proc.stdout) < 5 * 1024  # kB


class TestForkedChildren:
    """How a campaign with forked children fails: every failure reaches the
    caller as an exception, and no child outlives the call."""

    @staticmethod
    def failing_on(n, make_error, in_child=True):
        """An ``_etas`` that raises ``make_error()`` on graphs of ``n``
        vertices, in a forked child only, or with ``in_child`` false in
        this process only."""
        real_etas, parent = snlab.theorems._etas, os.getpid()

        def etas(g):
            if g.n == n and (os.getpid() != parent) == in_child:
                raise make_error()
            return real_etas(g)
        return etas

    def test_exception_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(snlab.theorems, "_etas", self.failing_on(
            5, lambda: LookupError("no graph on 5 vertices")))
        with pytest.raises(LookupError, match="no graph on 5 vertices"):
            gap_scan(5, workers=2)
        assert_no_children()

    def test_exception_that_does_not_pickle(self, monkeypatch):
        """A local class does not pickle; ``TheoremViolation`` pickles but
        cannot be rebuilt from its message alone."""
        class Local(Exception):
            pass

        for error, name in ((lambda: Local("lost"), "Local('lost')"),
                            (lambda: TheoremViolation("gap", {}, ""),
                             "TheoremViolation")):
            monkeypatch.setattr(snlab.theorems, "_etas",
                                self.failing_on(4, error))
            with pytest.raises(RuntimeError) as info:
                gap_scan(5, workers=3)
            assert type(info.value) is RuntimeError
            assert str(info.value).startswith(name)
            assert_no_children()

    def test_exception_in_this_process_keeps_its_type(self, monkeypatch,
                                                       forks):
        """A chunk this process scans fails as a direct call would, also
        with an exception that would not come back from a child intact,
        and the child is killed. The graphs on 5 vertices start in chunk 2
        of 8, which is this process's with two workers."""
        for error in (LookupError("no graph on 5 vertices"),
                      TheoremViolation("gap", {}, "")):
            monkeypatch.setattr(snlab.theorems, "_etas", self.failing_on(
                5, lambda: error, in_child=False))
            with pytest.raises(type(error)) as info:
                gap_scan(5, workers=2)
            assert info.value is error
            assert_no_children()
        assert len(forks) == 2

    def test_child_that_dies_without_its_chunk(self, monkeypatch):
        """The graphs on 4 vertices start in chunk 1, the child's."""
        monkeypatch.setattr(snlab.theorems, "_etas", self.failing_on(
            4, lambda: os.kill(os.getpid(), signal.SIGKILL)))
        with pytest.raises(RuntimeError, match="ended without chunk 1"):
            gap_scan(5, workers=2)
        assert_no_children()

    def test_sink_that_fails_stops_the_children(self):
        def sink(text):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            gap_scan(6, workers=2, emit=sink)
        assert_no_children()

    def test_import_starts_no_multiprocessing(self):
        """The package and its command line import no ``multiprocessing``,
        whose import alone costs about 10 ms in every fresh process."""
        src = os.path.dirname(os.path.dirname(snlab.theorems.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, snlab, snlab.cli; "
             "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout == "[]\n"


class TestGapScanSingleSource:
    """The campaign applies the same statements as the one-off queries."""

    def test_records_equal_invariant_records(self, signed_upto_5):
        _, chunks = scan_emitting(5)
        lines = "".join(chunks).splitlines()
        assert len(lines) == len(signed_upto_5)
        for line, sg in zip(lines, signed_upto_5):
            assert json.loads(line) == row_of(sg)

    def test_lines_are_the_rows_dumped(self, signed_upto_5):
        """Each line is built from a per-graph template, yet has exactly
        the bytes ``cli._dump_line`` gives the class's row; ``EC\\o`` puts
        a backslash, escaped in JSON, into the graph6 string."""
        backslash = graph6_decode("EC\\o")
        for n_max, source, classes in (
                (5, None, signed_upto_5),
                (6, [backslash], enumerate_signatures(backslash))):
            text = "".join(scan_emitting(n_max, source=source)[1])
            rows = [row_of(sg) for sg in classes]
            assert text == "".join(_dump_line(r) + "\n" for r in rows)
            for line, row in zip(text.splitlines(), rows):
                assert json.loads(line) == row
        assert '"graph6":"EC\\\\o"' in text

    def test_predicate_count_equals_attains_upper(self, signed_upto_5):
        report = gap_scan(5)
        assert report.upper_check["predicate_true"] == sum(
            attains_upper(sg) for sg in signed_upto_5)


class TestClassScan:
    """The scan's per-class nullity, balance and predicate, read off the
    cotree patterns without building a signed graph, against the
    object-building reference paths."""

    @staticmethod
    def assert_matches_reference(g: Graph) -> None:
        connected, cotree = is_connected(g), cotree_edges(g)
        etas, attaining = _etas(g), _attaining(g)
        assert len(etas) == (1 << len(cotree)) + 1 and etas[-1] == 0
        for t, sg in enumerate(enumerate_signatures(g)):
            assert sg.negatives == {e for i, e in enumerate(cotree) if t >> i & 1}
            assert etas[t] - 1 == nullity(sg)
            assert (t == 0) == is_balanced(sg).balanced
            assert (t == attaining) == (connected and attains_upper(sg))

    @staticmethod
    def random_graph(rng: random.Random, n: int, connected: bool) -> Graph:
        density = rng.random()
        edges = {(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < density}
        if connected:  # a random spanning tree keeps it connected
            edges |= {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
        return Graph(n, frozenset(edges))

    def test_every_class_upto_6(self, graphs_upto_6):
        for g in graphs_upto_6:
            self.assert_matches_reference(g)

    def test_random_connected_graphs_on_8_vertices(self):
        rng = random.Random(88)
        sampled = 0
        while sampled < 40:
            g = self.random_graph(rng, 8, connected=True)
            if cycle_space_dim(g) <= 11:  # at most 2,048 classes each
                self.assert_matches_reference(g)
                sampled += 1

    def test_disconnected_graphs(self):
        rng = random.Random(3)
        for _ in range(60):
            g = self.random_graph(rng, rng.randrange(2, 9), connected=False)
            if cycle_space_dim(g) <= 8:
                self.assert_matches_reference(g)

    def test_symmetric_graphs(self):
        """Large automorphism groups, so most classes take their nullity
        from an earlier class of their orbit."""
        for g in symmetric_graphs():
            self.assert_matches_reference(g)

    def test_attaining_class_is_the_one_at_the_bound(self, graphs_upto_6):
        """``_attaining`` and ``attains_upper`` share ``_candidate``, so
        each is checked against the nullity too: on a connected graph the
        class they name is exactly the one whose eta is n - 2m + 2c."""
        attained = 0
        for g in graphs_upto_6 + symmetric_graphs():
            connected = is_connected(g)
            upper = invariant_record(SignedGraph.all_positive(g),
                                     check=False).upper
            etas, attaining = _etas(g), _attaining(g)
            for t, sg in enumerate(enumerate_signatures(g)):
                at_bound = etas[t] - 1 == upper
                assert (t == attaining) == (connected and at_bound), (g, t)
                if connected:
                    assert attains_upper(sg) == at_bound, (g, t)
            attained += attaining is not None
        assert attained >= 10

    def test_pattern_action_against_relabeled_signings(self, graphs_upto_6):
        """Each generator's image of each class with one negative cotree
        edge is the pattern of the signing with that edge's image negative,
        read off the fundamental cycles' signs."""
        for g in graphs_upto_6 + symmetric_graphs():
            cotree = cotree_edges(g)
            action = _pattern_action(g, cotree)
            gens = automorphism_generators(g) if len(cotree) >= 5 else ()
            assert len(action.maps) == len(gens)
            third = (1 << action.w) - 1
            for p, (t0, t1, t2) in zip(gens, action.maps):
                for j, (u, v) in enumerate(cotree):
                    x = 1 << j
                    image = t0[x & third] ^ t1[x >> action.w & third] ^ \
                        t2[x >> 2 * action.w]
                    relabeled = SignedGraph(g, {tuple(sorted((p[u], p[v])))})
                    assert image == pattern_of(relabeled)

    def test_negation_keeps_nullity(self, graphs_upto_6):
        """Negating every sign gives the class ``t ^ odd``, ``odd`` the bits
        of the odd fundamental cycles, and keeps the Bareiss nullity."""
        for g in graphs_upto_6:
            cotree = cotree_edges(g)
            odd = sum(1 << i for i, (u, v) in enumerate(cotree)
                      if len(fundamental_cycle(g, u, v)) % 2)
            etas = []
            for sg in enumerate_signatures(g):
                negated = SignedGraph(g, g.edges - sg.negatives)
                assert pattern_of(negated) == pattern_of(sg) ^ odd
                etas.append(nullity(sg))
            assert all(etas[t] == etas[t ^ odd] for t in range(len(etas)))

    def test_ranks_of_complete_graphs(self, monkeypatch):
        """One class is ranked per orbit of the automorphisms and negation,
        and the orbits cover every class."""
        ranked = []

        def counting(residual):
            ranked.append(len(residual))
            return rank_division_free(residual)

        monkeypatch.setattr("snlab.theorems.rank_division_free", counting)
        for n, ranks in ((5, 4), (6, 10), (7, 27), (8, 131)):
            ranked.clear()
            etas = _etas(complete_graph(n))
            assert len(ranked) == ranks
            assert 0 not in etas[:-1]

    def test_ranks_equal_burnside_orbit_counts(self, graphs_upto_6,
                                               monkeypatch):
        """``_etas`` ranks one class per orbit of ``H``, the group that
        negation ``t ^ odd`` and the pattern maps of
        ``automorphism_generators`` generate (negation alone below five
        cotree edges): its ranks equal Burnside's count ``(1/|H|) sum
        |Fix(h)|``, with ``H`` enumerated by closure from those maps."""
        ranked = []

        def counting(residual):
            ranked.append(len(residual))
            return rank_division_free(residual)

        monkeypatch.setattr("snlab.theorems.rank_division_free", counting)
        for g in graphs_upto_6:
            cotree = cotree_edges(g)
            patterns = range(1 << len(cotree))
            odd = sum(1 << i for i, (u, v) in enumerate(cotree)
                      if len(fundamental_cycle(g, u, v)) % 2)
            action = _pattern_action(g, cotree)
            w, third = action.w, (1 << action.w) - 1
            gens = [tuple(t ^ odd for t in patterns)] + [
                tuple(t0[t & third] ^ t1[t >> w & third] ^ t2[t >> 2 * w]
                      for t in patterns) for t0, t1, t2 in action.maps]
            group = {tuple(patterns)}
            todo = list(group)
            while todo:
                h = todo.pop()
                for s in gens:
                    sh = tuple(s[t] for t in h)
                    if sh not in group:
                        group.add(sh)
                        todo.append(sh)
            fixed = sum(h[t] == t for h in group for t in patterns)
            assert fixed % len(group) == 0
            ranked.clear()
            _etas(g)
            assert len(ranked) == fixed // len(group), g

    def test_cores_above_8(self):
        rng = random.Random(12)
        for n in (10, 11, 12):
            # a cycle through every vertex plus chords: no pendant vertex
            g = Graph(n, frozenset(
                [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
                + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(3)]))
            assert g.pendant_core[1] == n
            self.assert_matches_reference(g)


class TestGapScanFailurePath:
    """Wrong nullity values (see ``conftest.WRONG_NULLITY``) must surface as
    violations and disagreements carrying the full record, in scan order."""

    def test_violations_and_disagreements(self, wrong_nullity):
        report = gap_scan(3)
        assert not report.clean
        k2 = {"graph6": "A_", "negatives": [], "n": 2, "m": 1, "c": 0,
              "eta": -1, "balanced": True, "lower": 0, "upper": 0, "s": 1}
        # a c = 0 class at slack 1 is also outside the bounds: both kinds
        assert report.violations[:2] == [{"kind": "nullity bounds", **k2},
                                         {"kind": "slack-one gap", **k2}]
        assert [(v["kind"], v["n"], v["c"], v["eta"])
                for v in report.violations] == [
            ("nullity bounds", 2, 0, -1), ("slack-one gap", 2, 0, -1),
            ("nullity bounds", 3, 0, 3)]
        assert [(d["predicate"], d["n"], d["c"], d["eta"], d["s"])
                for d in report.upper_check["disagreements"]] == [
            (True, 2, 0, -1, 1), (True, 3, 0, 3, -2), (False, 3, 1, 3, 0)]
        assert report.upper_check["disagreements"][0] == {"predicate": True,
                                                          **k2}
        upper = report.upper_check
        assert upper["tested"] == report.totals["signatures"] == 5
        assert upper["agreements"] == 5 - 3
        assert report.histogram[(2, 0)] == {1: 1}

    def test_emitted_lines_carry_the_wrong_values(self, wrong_nullity):
        report, chunks = scan_emitting(3)
        rows = []
        for sg in signed_sweep(3):
            key = (sg.n, len(sg.graph.edges), len(sg.negatives))
            rows.append(row_of(sg, **({"eta": WRONG_NULLITY[key]}
                                      if key in WRONG_NULLITY else {})))
        lines = "".join(chunks).splitlines()
        assert lines == [_dump_line(r) for r in rows]
        assert {r["eta"] for r in rows} >= {-1, 3}
        bad = report.violations + report.upper_check["disagreements"]
        assert len(bad) == 6
        for row in bad:
            evidence = {k: v for k, v in row.items()
                        if k not in ("kind", "predicate")}
            assert _dump_line(evidence) in lines
