"""Command-line interface tests.

All commands run in-process through ``main(argv)`` so return codes and
outputs are asserted directly; one test also goes through the installed
console script to check the entry point wiring.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

import snlab.cli
import snlab.theorems
from snlab import Graph, SignedGraph, cycle_graph, path_graph, write_graph6, write_sgl
from snlab.cli import main


def write_records(path, records):
    write_sgl(records, str(path))
    return str(path)


class TestInvariantsCommand:
    def test_jsonl_fields(self, tmp_path, capsys):
        inp = write_records(tmp_path / "in.sgl", [
            SignedGraph.all_positive(cycle_graph(4)),
            SignedGraph.with_negatives(cycle_graph(6), [(0, 1)]),
        ])
        assert main(["invariants", inp]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"n": 4, "m": 2, "c": 1, "eta": 2, "balanced": True,
                         "lower": -1, "upper": 2, "s": 0}
        second = json.loads(lines[1])
        assert second["eta"] == 2 and second["balanced"] is False

    def test_out_file(self, tmp_path):
        inp = write_records(tmp_path / "in.sgl",
                            [SignedGraph.all_positive(path_graph(3))])
        out = tmp_path / "records.jsonl"
        assert main(["invariants", inp, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["eta"] == 1

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.sgl"
        empty.write_text("")
        assert main(["invariants", str(empty)]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        assert main(["invariants", "/nonexistent/input.sgl"]) == 1

    def test_directory_input(self, tmp_path, capsys):
        assert main(["invariants", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.sgl"
        bad.write_text("2\n0 1 *\n")
        assert main(["invariants", str(bad)]) == 4

    def test_vertex_count_too_large(self, tmp_path, capsys):
        """Parsing fails before a graph of 10**11 vertices is allocated."""
        bad = tmp_path / "big.sgl"
        bad.write_text("100000000000\n")
        assert bad.stat().st_size == 13
        assert main(["invariants", str(bad)]) == 4
        assert capsys.readouterr().err == (
            "parse error: line 1: vertex count above 258047\n")

    def test_edge_endpoint_too_long(self, tmp_path, capsys):
        """An endpoint longer than ``int()`` converts is a parse error."""
        bad = tmp_path / "long.sgl"
        bad.write_text(f"2\n0 {'9' * 5000} +\n")
        assert main(["invariants", str(bad)]) == 4
        assert capsys.readouterr().err == (
            "parse error: line 2: edge endpoint above 258047\n")


class TestClassifyCommand:
    def test_agreement_lines(self, tmp_path, capsys):
        inp = write_records(tmp_path / "in.sgl", [
            SignedGraph.with_negatives(cycle_graph(6), [(0, 1)]),
            SignedGraph.with_negatives(cycle_graph(5), [(1, 2)]),
        ])
        assert main(["classify", inp]) == 0
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        assert lines[0] == {"index": 0, "case": 2, "predicted_eta": 2,
                            "computed_eta": 2, "agreement": True}
        assert lines[1]["case"] == 1 and lines[1]["agreement"] is True

    def test_error_entries_continue(self, tmp_path, capsys):
        inp = write_records(tmp_path / "in.sgl", [
            SignedGraph.all_positive(cycle_graph(4)),  # balanced: error entry
            SignedGraph.all_positive(path_graph(3)),   # acyclic: error entry
            SignedGraph.with_negatives(cycle_graph(3), [(0, 1)]),
        ])
        assert main(["classify", inp]) == 0
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        assert "error" in lines[0] and "unbalanced" in lines[0]["error"]
        assert "error" in lines[1]
        assert lines[2]["agreement"] is True

    def test_parse_error_keeps_out(self, tmp_path):
        """The input is parsed before ``--out`` is opened: a parse error
        leaves an earlier file as it was and creates none."""
        bad = tmp_path / "bad.sgl"
        bad.write_text("3\n0 1 +\n1 2 +\n0 2 -\n\n2\n0 1 *\n")
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        old.write_text("earlier\n")
        for out in (old, new):
            assert main(["classify", str(bad), "--out", str(out)]) == 4
        assert old.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.sgl",
                                                              "old.jsonl"]


class TestVerifyCommand:
    def test_clean_run_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--n-max", "4", "--out", str(out1)]) == 0
        assert main(["verify", "--n-max", "4", "--out", str(out2),
                     "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["totals"] == {"graphs": 10, "signatures": 23,
                                    "source_skipped": 0}
        assert report["violations"] == []
        assert report["upper_check"]["disagreements"] == []
        assert "4,1" in report["histogram"]
        # no counterexample artifact on a clean run
        assert not (tmp_path / "r1.json.counterexamples.json").exists()
        # wall time goes to stderr, never into the report
        assert "signatures" in capsys.readouterr().err

    def test_emit_all_jsonl(self, tmp_path):
        out = tmp_path / "records.jsonl"
        assert main(["verify", "--n-max", "3", "--emit-all",
                     "--out", str(out)]) == 0
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert len(lines) == 5  # K1, K2, P3, C3(+), C3(-) signature records
        assert {"graph6", "negatives", "n", "m", "c", "eta", "balanced",
                "lower", "upper", "s"} <= set(lines[0])

    def test_graph6_source(self, tmp_path):
        src = tmp_path / "graphs.g6"
        write_graph6([cycle_graph(4), path_graph(5), cycle_graph(9)], str(src))
        out = tmp_path / "report.json"
        assert main(["verify", "--n-max", "6",
                     "--source", f"graph6:{src}", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["totals"]["graphs"] == 2
        assert report["totals"]["source_skipped"] == 1
        assert report["config"]["source"].startswith("graph6:")

    def test_capacity_exit(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--n-max", "9", "--out", str(out)]) == 3
        assert not out.exists()

    def test_failed_campaign_keeps_the_old_report(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("an earlier report\n")
        assert main(["verify", "--n-max", "9", "--out", str(out)]) == 3
        assert out.read_text() == "an earlier report\n"

    def test_failed_streamed_campaign_keeps_the_old_report(self, tmp_path,
                                                           monkeypatch):
        """``--emit-all`` writes lines as chunks arrive; a campaign that
        fails part-way still leaves the earlier report as it was, and no
        partial file behind."""
        real_etas, real_scan = snlab.theorems._etas, snlab.cli.gap_scan
        seen, streamed = [0], []

        # the four chunks of n <= 5 hold 11, 26, 49 and 130 classes, so
        # the graph that holds the 41st class is in the third
        def failing(g):
            table = real_etas(g)
            seen[0] += len(table) - 1
            if seen[0] > 40:
                raise RuntimeError("the scan failed part-way")
            return table

        def spying(emit, **kwargs):
            def sink(text):
                streamed.append(text)
                return emit(text)
            return real_scan(emit=sink, **kwargs)

        monkeypatch.setattr(snlab.theorems, "_etas", failing)
        monkeypatch.setattr(snlab.cli, "gap_scan", spying)
        out = tmp_path / "r.jsonl"
        out.write_text("an earlier report\n")
        with pytest.raises(RuntimeError):
            main(["verify", "--n-max", "5", "--emit-all", "--out", str(out)])
        assert [text.count("\n") for text in streamed] == [11, 26]
        assert out.read_text() == "an earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_failed_forked_campaign_keeps_the_old_report(self, tmp_path,
                                                         monkeypatch):
        """With two workers the scan runs in forked children; one that
        fails part-way leaves the earlier report and no ``.part`` file, and
        the children do not run the parent's clean-up."""
        real_etas, parent = snlab.theorems._etas, os.getpid()

        # the graphs on 5 vertices start in chunk 2, which this process
        # scans, so the first that fails is in chunk 3, the child's
        def failing(g):
            if g.n == 5 and os.getpid() != parent:
                raise RuntimeError("the scan failed part-way")
            return real_etas(g)

        monkeypatch.setattr(snlab.theorems, "_etas", failing)
        out = tmp_path / "r.jsonl"
        out.write_text("an earlier report\n")
        with pytest.raises(RuntimeError, match="part-way"):
            main(["verify", "--n-max", "5", "--emit-all", "--workers", "2",
                  "--out", str(out)])
        assert out.read_text() == "an earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_failed_campaign_leaves_no_new_out(self, tmp_path, monkeypatch):
        """The check that ``--out`` can be opened creates a missing file; a
        failed campaign removes it again, also behind a dangling symlink,
        and leaves nothing else."""
        def failing(g):
            raise RuntimeError("the scan failed")

        monkeypatch.setattr(snlab.theorems, "_etas", failing)
        link, out = tmp_path / "link.json", tmp_path / "r.json"
        link.symlink_to(tmp_path / "target.json")
        for path in (out, link):
            for extra in ([], ["--emit-all"]):
                with pytest.raises(RuntimeError):
                    main(["verify", "--n-max", "3", *extra, "--out", str(path)])
                assert [p.name for p in tmp_path.iterdir()] == ["link.json"]
                assert link.is_symlink() and not link.exists()

    def test_symlinked_out_gets_the_report(self, tmp_path):
        """A symlinked ``--out`` stays a symlink: the file it names gets the
        report and keeps its permissions, and a user's file that happens
        to be called ``<out>.part`` is left alone. Every command writes
        ``--out`` the same way, so a per-record command does too."""
        inp = write_records(tmp_path / "in.sgl",
                            [SignedGraph.all_positive(path_graph(3))])
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        link.symlink_to(real)
        mine = tmp_path / "real.json.part"
        mine.write_text("not the report's\n")
        for argv, read in ((["verify", "--n-max", "3"],
                            lambda r: r["totals"]["signatures"] == 5),
                           (["invariants", inp], lambda r: r["eta"] == 1)):
            real.write_text("an earlier report\n")
            real.chmod(0o640)
            assert main([*argv, "--out", str(link)]) == 0
            assert link.is_symlink() and link.resolve() == real
            assert read(json.loads(real.read_text()))
            assert stat.S_IMODE(real.stat().st_mode) == 0o640
            assert mine.read_text() == "not the report's\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "in.sgl", "link.json", "real.json", "real.json.part"]

    def test_devnull_out(self, tmp_path, capsys):
        """``--out`` is required, so ``os.devnull`` is how a report is
        discarded; it is written, not replaced, also by a per-record
        command."""
        inp = write_records(tmp_path / "in.sgl",
                            [SignedGraph.all_positive(path_graph(3))])
        for argv in (["verify", "--n-max", "3"],
                     ["verify", "--n-max", "3", "--emit-all"],
                     ["invariants", inp]):
            assert main([*argv, "--out", os.devnull]) == 0
            assert not stat.S_ISREG(os.stat(os.devnull).st_mode)
        assert capsys.readouterr().out == ""

    def test_parse_error_exit(self, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_text("D?\n")
        assert main(["verify", "--n-max", "6",
                     "--source", f"graph6:{src}",
                     "--out", str(tmp_path / "r.json")]) == 4

    def test_parse_error_after_good_lines_keeps_out(self, tmp_path):
        """The source is read as the campaign runs: a bad line after good
        ones still exits 4 and leaves an existing ``--out`` as it was."""
        src = tmp_path / "late.g6"
        write_graph6([cycle_graph(4), path_graph(5)], str(src))
        with open(src, "a", encoding="ascii") as fh:
            fh.write("D?\n")
        out = tmp_path / "r.json"
        out.write_text("earlier\n")
        for workers in ("1", "2"):
            assert main(["verify", "--n-max", "6", "--workers", workers,
                         "--source", f"graph6:{src}", "--out", str(out)]) == 4
            assert out.read_text() == "earlier\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["late.g6",
                                                                  "r.json"]

    def test_bad_source_scheme(self, tmp_path):
        assert main(["verify", "--n-max", "4", "--source", "sql:zzz",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_bad_n_max(self, tmp_path):
        assert main(["verify", "--n-max", "0",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_directory_out(self, tmp_path, capsys):
        assert main(["verify", "--n-max", "3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_fails_before_the_scan(self, tmp_path, capsys, monkeypatch):
        def never(**kwargs):
            raise AssertionError("the campaign ran before --out was opened")

        monkeypatch.setattr(snlab.cli, "gap_scan", never)
        assert main(["verify", "--n-max", "3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_c_max(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["verify", "--n-max", "4", "--c-max", "-1",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "--c-max" in capsys.readouterr().err


class TestReportBytes:
    """The campaign's bytes are a contract: enumeration order, record
    fields and serialization all show in these digests."""

    def digest(self, tmp_path, *args):
        out = tmp_path / "out"
        assert main(["verify", "--n-max", "6", *args, "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_report(self, tmp_path):
        assert self.digest(tmp_path) == (
            "3a0b7bc3a166d660c2193fb983dac9bcb2abc2c1547895ea8785ff2b8a31f66e")

    def test_emit_all_for_one_and_two_workers(self, tmp_path):
        for workers in ("1", "2"):
            assert self.digest(tmp_path, "--emit-all", "--workers", workers) == (
                "1547b9d4b171f07c7484df770c16c74eaf3a9917f37aa8e60ef2a39b7d91a2f4")


class TestVerifyFailurePath:
    def test_violations_exit_2_with_counterexamples(self, tmp_path, capsys,
                                                    wrong_nullity):
        out = tmp_path / "r.json"
        assert main(["verify", "--n-max", "3", "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert len(report["violations"]) == 3
        cpath = tmp_path / "r.json.counterexamples.json"
        rows = [json.loads(s) for s in cpath.read_text().splitlines()]
        assert rows == (report["violations"]
                        + report["upper_check"]["disagreements"])
        assert [r.get("kind") for r in rows] == [
            "nullity bounds", "slack-one gap", "nullity bounds",
            None, None, None]
        assert [r.get("predicate") for r in rows[3:]] == [True, True, False]
        assert "6 violation(s)" in capsys.readouterr().err


class TestNonAsciiInput:
    """Non-ASCII bytes are a parse error (exit 4), never a traceback."""

    def test_sgl_commands(self, tmp_path):
        path = tmp_path / "bad.sgl"
        path.write_bytes(b"2\n0 1 +\n\n3\n0 1 \xe2\x88\x92\n")
        assert main(["invariants", str(path)]) == 4
        assert main(["classify", str(path)]) == 4

    def test_graph6_source(self, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_bytes(b"A_\nD\xc3\xa9\n")
        assert main(["verify", "--n-max", "6", "--source", f"graph6:{src}",
                     "--out", str(tmp_path / "r.json")]) == 4


class TestOptimizedMode:
    def test_verify_output_identical_under_O(self, tmp_path):
        """``python -O`` strips asserts; the checks and output must not
        depend on them."""
        for args in (["--n-max", "5"], ["--emit-all", "--n-max", "4"],
                     ["--emit-all", "--workers", "2", "--n-max", "5"]):
            outputs = []
            for flags in ([], ["-O"]):
                out = tmp_path / f"out{len(outputs)}"
                subprocess.run([sys.executable, *flags, "-m", "snlab.cli",
                                "verify", *args, "--out", str(out)],
                               check=True, capture_output=True)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]


class TestGenerateCommand:
    def test_table_and_file(self, tmp_path, capsys):
        out = tmp_path / "family.sgl"
        assert main(["generate", "1", "1", "1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "predicted" in printed and "match: True" in printed
        text = out.read_text()
        assert text.startswith("16\n")
        assert text.count("-") == 1  # exactly one negative edge per hexagon

    def test_all_zero_is_usage_error(self, tmp_path):
        assert main(["generate", "0", "0", "0",
                     "--out", str(tmp_path / "f.sgl")]) == 1

    def test_negative_is_usage_error(self, tmp_path):
        assert main(["generate", "-1", "0", "2",
                     "--out", str(tmp_path / "f.sgl")]) == 1


class TestSachsCommand:
    def test_agreement(self, tmp_path, capsys):
        inp = write_records(tmp_path / "in.sgl", [
            SignedGraph.all_positive(cycle_graph(3)),
            SignedGraph.with_negatives(cycle_graph(4), [(0, 1)]),
        ])
        assert main(["sachs", inp]) == 0
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        assert lines[0] == {"index": 0, "coefficients": [1, 0, -3, -2],
                            "agrees_char_poly": True}
        assert lines[1]["coefficients"] == [1, 0, -4, 0, 4]

    def test_capacity(self, tmp_path):
        big = SignedGraph.all_positive(path_graph(13))
        inp = write_records(tmp_path / "in.sgl", [big])
        assert main(["sachs", inp]) == 3

    def test_capacity_part_way_keeps_the_old_out(self, tmp_path):
        """Record 1 is answered, record 2 is over the vertex cap: the
        command exits 3, an earlier ``--out`` keeps its content, a new one
        is not created, and no temporary file is left."""
        inp = write_records(tmp_path / "in.sgl", [
            SignedGraph.all_positive(cycle_graph(3)),
            SignedGraph.all_positive(path_graph(13))])
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        old.write_text("an earlier answer\n")
        for out in (old, new):
            assert main(["sachs", inp, "--out", str(out)]) == 3
        assert old.read_text() == "an earlier answer\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.sgl",
                                                              "old.jsonl"]


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["verify", "--n-max", "4", "--frobnicate",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_console_script(self, tmp_path):
        inp = write_records(tmp_path / "in.sgl",
                            [SignedGraph.all_positive(Graph(1, frozenset()))])
        proc = subprocess.run(
            [sys.executable, "-m", "snlab.cli", "invariants", inp],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 1
