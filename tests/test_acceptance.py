"""Acceptance gate: every contract criterion, one timed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see the lines for
passing criteria too (pytest hides captured stdout of passing tests by
default). Each criterion asserts its claim exactly (integer arithmetic,
tolerance zero) and asserts its runtime budget.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from contextlib import contextmanager

from snlab import (
    FamilyParams,
    Graph,
    SignedGraph,
    char_poly_exact,
    classify_unicyclic,
    cycle_graph,
    delete_vertices,
    disjoint_union,
    enumerate_connected,
    enumerate_signatures,
    even_cycle_matching_equivalence,
    family_prediction,
    gap_scan,
    generate_family,
    invariant_record,
    is_balanced,
    is_connected,
    matching_number,
    nullity,
    odd_cycle_matching_equivalence,
    path_graph,
    pendant_vertices,
    sachs_coefficients,
    signed_adjacency,
    slack_coverage,
    switch,
    unique_cycle,
    vertices_on_cycles,
)
from snlab.cli import main as cli_main


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:>2}: FAIL  ({elapsed:7.2f}s)  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:>2}: PASS  ({elapsed:7.2f}s <= {budget_s:g}s)  {label}")
    assert elapsed <= budget_s, (
        f"criterion {num} exceeded its runtime budget: "
        f"{elapsed:.2f}s > {budget_s}s")


_CACHE: dict = {}


def n7_scan():
    """The n <= 7 campaign, shared by the gap and upper-bound criteria."""
    if "n7" not in _CACHE:
        _CACHE["n7"] = gap_scan(7, workers=2)
    return _CACHE["n7"]


def signed_graphs_upto(n_max: int):
    for n in range(1, n_max + 1):
        for g in enumerate_connected(n):
            yield from enumerate_signatures(g)


def test_criterion_01_cycle_nullity_table():
    with criterion(1, "cycle nullity table, p = 3..12, both signatures", 1.0):
        for p in range(3, 13):
            balanced = SignedGraph.all_positive(cycle_graph(p))
            unbalanced = SignedGraph.with_negatives(cycle_graph(p), [(0, 1)])
            if p % 2 == 1:
                expect_bal, expect_unbal = 0, 0
            elif p % 4 == 0:
                expect_bal, expect_unbal = 2, 0
            else:  # p = 2 mod 4
                expect_bal, expect_unbal = 0, 2
            assert nullity(balanced) == expect_bal, f"C_{p} balanced"
            assert nullity(unbalanced) == expect_unbal, f"C_{p} unbalanced"


def test_criterion_02_path_nullity():
    with criterion(2, "path nullity eta(P_n) = n mod 2, n = 1..12", 1.0):
        rng = random.Random(2026)
        for n in range(1, 13):
            g = path_graph(n)
            assert nullity(SignedGraph.all_positive(g)) == n % 2
            signs = {e: rng.choice((1, -1)) for e in g.edges}
            assert nullity(SignedGraph.with_signs(g, signs)) == n % 2


def test_criterion_03_bounds_exhaustive_n6():
    with criterion(3, "nullity bounds, all signatures over connected n <= 6",
                   60.0):
        report = gap_scan(6)
        bound_violations = [v for v in report.violations
                            if v["kind"] == "nullity bounds"]
        assert bound_violations == []
        assert report.totals["graphs"] == 143
        assert report.totals["signatures"] == 4532


def test_criterion_04_gap_theorem_n7():
    with criterion(4, "slack never equals 1, all signatures over "
                      "connected n <= 7", 900.0):
        report = n7_scan()
        gap_violations = [v for v in report.violations
                          if v["kind"] == "slack-one gap"]
        assert gap_violations == []
        assert report.violations == []
        assert report.totals["signatures"] == 197349
        observed_slacks = {s for by_s in report.histogram.values()
                           for s in by_s}
        assert 1 not in observed_slacks
        assert 0 in observed_slacks and 2 in observed_slacks


def test_criterion_05_upper_bound_characterization_n7():
    with criterion(5, "structural predicate iff eta = upper bound, n <= 7",
                   900.0):
        report = n7_scan()
        assert report.upper_check["disagreements"] == []
        assert report.upper_check["tested"] == report.totals["signatures"]
        assert report.upper_check["agreements"] == report.upper_check["tested"]
        assert report.upper_check["predicate_true"] > 0


def test_n7_report_bytes():
    """The bytes of ``snlab verify --n-max 7``, from the shared scan."""
    body = json.dumps(n7_scan().to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(body.encode("ascii")).hexdigest() == (
        "3ca10654df36435fff8241b68af5a00895b309aa554cefb08e9e1910e30c032f")


def test_criterion_06_unicyclic_trichotomy_n9():
    with criterion(6, "unicyclic trichotomy, unbalanced signatures, n <= 9",
                   300.0):
        checked = 0
        for n in range(3, 10):
            for g in enumerate_connected(n, max_c=1, cap=9):
                if len(g.edges) != n:  # a tree
                    continue
                for sg in enumerate_signatures(g):
                    if is_balanced(sg).balanced:
                        continue
                    offset = classify_unicyclic(sg)
                    eta = nullity(sg)
                    m = matching_number(g)
                    assert eta == sg.n - 2 * m + offset, (
                        f"trichotomy mismatch on {g.sorted_edges()}")
                    checked += 1
        assert checked == 383  # one unbalanced class per unicyclic graph


def test_criterion_07_extremal_families():
    with criterion(7, "family invariants for all block triples with "
                      "1 <= total <= 4, slack coverage c <= 4", 60.0):
        for total in range(1, 5):
            for l1 in range(total + 1):
                for l2 in range(total - l1 + 1):
                    l3 = total - l1 - l2
                    params = FamilyParams(l1, l2, l3)
                    sg, pred = generate_family(params)
                    rec = invariant_record(sg)
                    assert (rec.n, rec.m, rec.c, rec.eta) == (
                        pred.n, pred.m, pred.c, pred.eta)
                    assert pred.eta == 2 * l2 + l3
                    assert rec.s == 3 * l1 + 2 * l3
        for c in range(1, 5):
            cov = slack_coverage(c)
            assert set(cov) == set(range(3 * c + 1)) - {1}
            for s, params in cov.items():
                pred = family_prediction(params)
                assert pred.s == s and pred.c == c


def test_criterion_08_sachs_oracle_n6():
    with criterion(8, "Sachs coefficients equal characteristic polynomial, "
                      "all signatures n <= 6", 300.0):
        count = 0
        for sg in signed_graphs_upto(6):
            assert sachs_coefficients(sg) == \
                char_poly_exact(signed_adjacency(sg))
            count += 1
        assert count == 4532


def _property_switching_invariance():
    rng = random.Random(1202)
    for sg in signed_graphs_upto(6):
        eta = nullity(sg)
        for v in range(sg.n):
            assert nullity(switch(sg, [v])) == eta
        subset = [v for v in range(sg.n) if rng.random() < 0.5]
        assert nullity(switch(sg, subset)) == eta


def _property_interlacing():
    for sg in signed_graphs_upto(6):
        eta = nullity(sg)
        for x in range(sg.n):
            sub, _ = delete_vertices(sg, [x])
            assert abs(nullity(sub) - eta) <= 1


def _property_pendant_preservation():
    for sg in signed_graphs_upto(6):
        g = sg.graph
        for u in pendant_vertices(g):
            (v,) = g.neighbors(u)
            sub, _ = delete_vertices(sg, [u, v])
            assert nullity(sub) == nullity(sg)


def _property_matching_rules():
    # pendant & quasi-pendant deletion drop m by exactly one
    for n in range(1, 8):
        for g in enumerate_connected(n):
            m = matching_number(g)
            for u in pendant_vertices(g):
                (v,) = g.neighbors(u)
                gv, _ = delete_vertices(g, [v])
                guv, _ = delete_vertices(g, [u, v])
                assert m == 1 + matching_number(gv)
                assert m == 1 + matching_number(guv)
    # any single deletion drops m by at most one
    for n in range(1, 7):
        for g in enumerate_connected(n):
            m = matching_number(g)
            for v in range(g.n):
                gv, _ = delete_vertices(g, [v])
                assert m - 1 <= matching_number(gv) <= m
    # an even cycle joined by one edge adds matching numbers
    rng = random.Random(814)
    for _ in range(30):
        while True:
            nh = rng.randrange(1, 7)
            h = Graph(nh, frozenset(
                e for e in itertools.combinations(range(nh), 2)
                if rng.random() < 0.5))
            if is_connected(h):
                break
        q = rng.choice((4, 6, 8))
        y = rng.randrange(h.n)
        base = disjoint_union(cycle_graph(q), h)
        joined = Graph(base.n, base.edges | {(0, q + y)})
        assert matching_number(joined) == q // 2 + matching_number(h)


def _property_cycle_equivalences():
    for n in range(3, 10):
        for g in enumerate_connected(n, max_c=1, cap=9):
            if len(g.edges) != n:  # a tree
                continue
            if len(unique_cycle(g)) % 2 == 0:
                left, right = even_cycle_matching_equivalence(g)
            else:
                left, right = odd_cycle_matching_equivalence(g)
            assert left == right


def _property_type_two_slack():
    checked = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            cyclic = vertices_on_cycles(g)
            if not cyclic:
                continue
            if not any(g.neighbors(u)[0] in cyclic
                       for u in pendant_vertices(g)):
                continue
            for sg in enumerate_signatures(g):
                if is_balanced(sg).balanced:
                    continue
                rec = invariant_record(sg, check=False)
                assert rec.s >= 2
                checked += 1
    assert checked == 10113


def test_criterion_09_property_suites():
    with criterion(9, "property suites: switching, interlacing, pendants, "
                      "matching rules, cycle equivalences, Type II slack",
                   600.0):
        _property_switching_invariance()
        _property_interlacing()
        _property_pendant_preservation()
        _property_matching_rules()
        _property_cycle_equivalences()
        _property_type_two_slack()


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical campaign reports across runs and "
                       "worker counts", 120.0):
        paths = [tmp_path / name for name in
                 ("a.json", "b.json", "c.json", "d.jsonl", "e.jsonl")]
        assert cli_main(["verify", "--n-max", "5",
                         "--out", str(paths[0])]) == 0
        assert cli_main(["verify", "--n-max", "5",
                         "--out", str(paths[1])]) == 0
        assert cli_main(["verify", "--n-max", "5", "--workers", "3",
                         "--out", str(paths[2])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert cli_main(["verify", "--n-max", "4", "--emit-all",
                         "--out", str(paths[3])]) == 0
        assert cli_main(["verify", "--n-max", "4", "--emit-all", "--workers",
                         "2", "--out", str(paths[4])]) == 0
        assert paths[3].read_bytes() == paths[4].read_bytes()
        # report content sanity: parses as JSON with the documented keys
        report = json.loads(paths[0].read_text())
        assert set(report) == {"config", "totals", "histogram",
                               "violations", "upper_check"}
