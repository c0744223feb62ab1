"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import (RECORDS_C, RECORDS_N, SWEEP_CLASSES,  # noqa: E402
                       SWEEP_GRAPHS, Records48, Sweep, make_records, sgl_text,
                       sha256_file)


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def test_generator_is_deterministic_and_in_range():
    a = sgl_text(make_records(11, count=300))
    assert a == sgl_text(make_records(11, count=300))
    assert a != sgl_text(make_records(12, count=300))
    # the seed draws the graphs, not their sizes
    assert sorted(r[:2] for r in make_records(11, count=300)) == \
        sorted(r[:2] for r in make_records(12, count=300))
    for n, c, edges in make_records(11, count=300):
        assert RECORDS_N[0] <= n <= RECORDS_N[1]
        assert RECORDS_C[0] <= c <= RECORDS_C[1]
        pairs = [(u, v) for u, v, _ in edges]
        assert len(set(pairs)) == len(pairs) == n - 1 + c
        assert all(0 <= u < v < n for u, v in pairs)
        assert _connected(n, pairs)


def test_generated_file_parses_with_snlab():
    records = make_records(3, count=50)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from snlab import sgl_loads, cycle_space_dim;"
         "print([[g.n, cycle_space_dim(g.graph)] for g in sgl_loads(sys.stdin.read())])"],
        input=sgl_text(records), capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC)})
    assert json.loads(out.stdout) == [[n, c] for n, c, _ in records]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        inner()
        clock.now += 2
        inner()
        clock.now += 3

    inner = tracer.wrap("m.inner", inner)
    outer = tracer.wrap("m.outer", outer)
    outer()
    t = tracer.totals()
    assert t["m.inner"] == {"calls": 2, "self_s": 10, "total_s": 10,
                            "yields": 0, "cells": 0}
    assert t["m.outer"] == {"calls": 1, "self_s": 6, "total_s": 16,
                            "yields": 0, "cells": 0}


def test_generator_spans_time_only_next():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def gen():
        for i in range(3):
            clock.now += 2
            yield i

    def consume():
        total = 0
        for i in gen():
            clock.now += 7  # the consumer's own work
            total += i
        return total

    gen = tracer.wrap("m.gen", gen)
    consume = tracer.wrap("m.consume", consume)
    assert consume() == 3
    t = tracer.totals()
    assert (t["m.gen"]["calls"], t["m.gen"]["yields"], t["m.gen"]["self_s"]) == (1, 3, 6)
    assert (t["m.consume"]["self_s"], t["m.consume"]["total_s"]) == (21, 27)


def test_install_wraps_every_name_and_keeps_results():
    code = """
import json, snlab, snlab.cli
from tracer import Tracer
sg = snlab.SignedGraph.with_negatives(snlab.cycle_graph(6), [(0, 1)])
before = snlab.invariant_record(sg).to_json_dict()
t = Tracer()
t.install(snlab)
after = snlab.theorems.invariant_record(sg).to_json_dict()
print(json.dumps([before == after,
                  hasattr(snlab.theorems.nullity, "__wrapped__"),
                  snlab.theorems.nullity is snlab.linalg.nullity is snlab.nullity,
                  snlab.cli.gap_scan is snlab.theorems.gap_scan, t.totals()]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": f"{SRC}:{HERE}"})
    same, wrapped, shared, cli_shared, totals = json.loads(out.stdout)
    assert same and wrapped and shared and cli_shared
    assert totals["theorems.invariant_record"]["calls"] == 1
    assert totals["linalg.nullity"]["calls"] == 1
    assert totals["linalg.rank_exact"]["cells"] == 36
    assert totals["theorems.invariant_record"]["total_s"] >= \
        totals["linalg.nullity"]["total_s"]


def _fake_report(workdir: Path) -> Path:
    path = workdir / "report.json"
    path.write_text(json.dumps({
        "totals": {"graphs": SWEEP_GRAPHS, "signatures": SWEEP_CLASSES},
        "violations": [], "upper_check": {"disagreements": []}}))
    return path


def test_wrong_expected_digest_fails_every_operation(tmp_path):
    wl = Sweep()
    wl.expected_sha256 = sha256_file(_fake_report(tmp_path))
    assert wl.check(tmp_path, {"rc": 0}).failed == 0
    wl.expected_sha256 = "0" * 64
    out = wl.check(tmp_path, {"rc": 0})
    assert out.failed == out.attempted == SWEEP_CLASSES


def test_failed_run_fails_every_operation(tmp_path):
    _fake_report(tmp_path)
    out = Sweep().check(tmp_path, {"rc": 2})
    assert out.failed == out.attempted


def test_wrong_record_answer_is_counted(tmp_path):
    wl = Records48()
    (tmp_path / "expected.json").write_text(json.dumps([[12, 1], [12, 0]]))
    good = {"rec": {"n": 12, "m": 6, "c": 0, "eta": 0, "balanced": True,
                    "lower": 0, "upper": 0, "s": 0}, "upper": True}
    wrong = {"rec": {"n": 12, "m": 6, "c": 1, "eta": 0, "balanced": False,
                     "lower": -1, "upper": 2, "s": 2}, "upper": False, "offset": 2}
    (tmp_path / "answers.json").write_text(json.dumps([wrong, good]))
    out = wl.check(tmp_path, {})
    assert (out.attempted, out.failed) == (2, 1)
