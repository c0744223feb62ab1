"""Serialization tests for graph6 and the signed line format."""

from __future__ import annotations

import itertools
import random

import pytest

from snlab import (
    Graph,
    ParseError,
    SignedGraph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
    read_graph6,
    read_sgl,
    sgl_dumps,
    sgl_loads,
    write_graph6,
    write_sgl,
)
from conftest import connected_graphs_upto


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, frozenset(e for e in itertools.combinations(range(n), 2)
                              if rng.random() < p))


class TestGraph6Encode:
    def test_known_encodings(self):
        assert graph6_encode(Graph(0, frozenset())) == "?"
        assert graph6_encode(Graph(1, frozenset())) == "@"
        assert graph6_encode(Graph(5, frozenset(
            (i, 4) for i in range(4)))) == "D?{"
        assert graph6_encode(path_graph(2)) == "A_"

    def test_known_decodings(self):
        star = graph6_decode("D?{")
        assert star.n == 5
        assert star.edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})
        assert graph6_decode("?").n == 0
        assert graph6_decode("A_") == path_graph(2)

    def test_header_tolerated(self):
        assert graph6_decode(">>graph6<<D?{").n == 5

    def test_round_trip_catalog(self, graphs_upto_7):
        for g in graphs_upto_7:
            assert graph6_decode(graph6_encode(g)) == g
        for g in connected_graphs_upto(8, max_c=2):
            assert graph6_decode(graph6_encode(g)) == g

    def test_round_trip_random_disconnected(self):
        rng = random.Random(1729)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(0, 9), rng.random())
            assert graph6_decode(graph6_encode(g)) == g

    def test_round_trip_long_size_form(self):
        g = path_graph(63)
        enc = graph6_encode(g)
        assert enc.startswith("~")
        assert graph6_decode(enc) == g

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            # only the size byte matters here; fabricate the call directly
            from snlab.formats import _g6_size_bytes
            _g6_size_bytes(258048)


class TestGraph6Errors:
    def test_empty_record(self):
        with pytest.raises(ParseError):
            graph6_decode("")

    def test_bad_size_byte(self):
        with pytest.raises(ParseError):
            graph6_decode("\x1cAB")

    def test_bad_data_byte(self):
        with pytest.raises(ParseError):
            graph6_decode("D\x1c{")

    def test_truncated_data(self):
        with pytest.raises(ParseError) as exc:
            graph6_decode("D?", lineno=7)
        assert exc.value.line == 7

    def test_overlong_data(self):
        with pytest.raises(ParseError):
            graph6_decode("D?{?")

    def test_nonzero_padding(self):
        # n=3 needs 3 bits; the fourth bit of the data byte is set
        with pytest.raises(ParseError):
            graph6_decode("B@")

    def test_truncated_long_size(self):
        with pytest.raises(ParseError):
            graph6_decode("~AB")
        with pytest.raises(ParseError) as exc:
            graph6_decode("~~AAACAB")
        assert str(exc.value) == "graph6 sizes above 258047 not supported"


class TestGraph6Files:
    def test_write_read_round_trip(self, tmp_path):
        graphs = [cycle_graph(5), path_graph(3), Graph(1, frozenset())]
        path = tmp_path / "graphs.g6"
        write_graph6(graphs, str(path))
        assert list(read_graph6(str(path))) == graphs

    def test_blank_lines_and_header_skipped(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(">>graph6<<\n\nD?{\n\nA_\n")
        got = list(read_graph6(str(path)))
        assert [g.n for g in got] == [5, 2]

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("A_\nD?\n")
        with pytest.raises(ParseError) as exc:
            list(read_graph6(str(path)))
        assert exc.value.line == 2

    def test_non_ascii_bytes(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"A_\nB\xffw\n")
        with pytest.raises(ParseError) as exc:
            list(read_graph6(str(path)))
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: bad graph6 byte 0xff"
        path.write_bytes(b"A_\nA_\nD\xc3\xa9\n")
        with pytest.raises(ParseError) as exc:
            list(read_graph6(str(path)))
        assert str(exc.value) == "line 3: bad graph6 byte 0xc3"
        path.write_bytes(b"\xc3\n")
        with pytest.raises(ParseError) as exc:
            list(read_graph6(str(path)))
        assert str(exc.value) == "line 1: bad graph6 size byte 0xc3"


class TestSglFormat:
    def test_exact_text(self):
        sg = SignedGraph.with_negatives(path_graph(2), [(0, 1)])
        assert sgl_dumps([sg]) == "2\n0 1 -\n"
        both = sgl_dumps([sg, SignedGraph.all_positive(cycle_graph(3))])
        assert both == "2\n0 1 -\n\n3\n0 1 +\n0 2 +\n1 2 +\n"
        assert sgl_dumps([]) == ""

    def test_round_trip(self, signed_upto_5):
        sample = signed_upto_5[::7]
        assert sgl_loads(sgl_dumps(sample)) == sample

    def test_edgeless_record(self):
        records = sgl_loads("3\n")
        assert records == [SignedGraph.all_positive(Graph(3, frozenset()))]

    def test_comments_and_blank_lines(self):
        text = "# a comment\n2\n0 1 +  # trailing comment\n\n\n# another\n3\n0 1 -\n"
        records = sgl_loads(text)
        assert len(records) == 2
        assert records[0].sign(0, 1) == 1
        assert records[1].sign(0, 1) == -1
        assert records[1].n == 3

    def test_file_round_trip_bytes(self, tmp_path, signed_upto_5):
        sample = signed_upto_5[::11]
        path = tmp_path / "a.sgl"
        write_sgl(sample, str(path))
        again = tmp_path / "b.sgl"
        write_sgl(read_sgl(str(path)), str(again))
        assert path.read_bytes() == again.read_bytes()


class TestSglErrors:
    def test_bad_count_line(self):
        with pytest.raises(ParseError) as exc:
            sgl_loads("x\n")
        assert exc.value.line == 1

    def test_bad_edge_line(self):
        with pytest.raises(ParseError) as exc:
            sgl_loads("2\n0 1\n")
        assert exc.value.line == 2

    def test_bad_endpoints(self):
        with pytest.raises(ParseError):
            sgl_loads("2\na b +\n")
        with pytest.raises(ParseError):
            sgl_loads("2\n1 0 +\n")

    def test_bad_sign(self):
        with pytest.raises(ParseError) as exc:
            sgl_loads("2\n0 1 *\n")
        assert exc.value.line == 2

    def test_endpoint_out_of_range(self):
        """Reported at the edge's own line, in any record."""
        with pytest.raises(ParseError) as exc:
            sgl_loads("2\n0 5 +\n")
        assert exc.value.line == 2
        assert "edge (0,5) out of range for n=2" in str(exc.value)
        with pytest.raises(ParseError) as exc:
            sgl_loads("2\n0 1 +\n\n3\n0 1 +\n1 3 -\n")
        assert exc.value.line == 6

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as exc:
            sgl_loads("3\n0 1 +\n0 1 -\n")
        assert exc.value.line == 3

    def test_vertex_count_limit(self):
        """Counts above graph6's limit are rejected at their line, before
        a graph is built, and so are counts too long for ``int``."""
        with pytest.raises(ParseError) as exc:
            sgl_loads("258048\n")
        assert str(exc.value) == "line 1: vertex count above 258047"
        with pytest.raises(ParseError) as exc:
            sgl_loads("1\n\n" + "9" * 5000 + "\n")
        assert exc.value.line == 3
        assert [sg.n for sg in sgl_loads("258047\n\n" + "0" * 5000 + "2\n")] == [
            258047, 2]

    def test_non_ascii_digits(self):
        # str.isdigit accepts these, int() rejects or converts them
        with pytest.raises(ParseError) as exc:
            sgl_loads("\u00b2\n")
        assert exc.value.line == 1
        with pytest.raises(ParseError) as exc:
            sgl_loads("3\n0 \u0662 +\n")
        assert exc.value.line == 2

    def test_non_ascii_bytes_in_file(self, tmp_path):
        path = tmp_path / "bad.sgl"
        path.write_bytes(b"2\n0 1 +\n\n3\n0 1 +  # \xc3\xa9\n")
        with pytest.raises(ParseError) as exc:
            read_sgl(str(path))
        assert exc.value.line == 5
