"""File formats: graph6 for unsigned graphs, a line format for signed ones.

graph6 is the usual 6-bit printable encoding (one graph per line, optional
``>>graph6<<`` header): the vertex count, then the upper triangle of the
adjacency matrix read column by column, packed big-endian into bytes 63..126.

The signed format (.sgl) is textual: a record starts with a line holding
the vertex count, followed by one ``u v s`` line per edge with ``u < v``
and ``s`` either ``+`` or ``-``. Records are separated by blank lines;
``#`` starts a comment. Writers emit edges sorted, so write/read/write is
the identity on bytes.

Readers decode non-ASCII bytes to lone surrogates (``surrogateescape``),
so the parsers reject them as a :class:`ParseError` with a line number.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ParseError
from .graphs import Edge, Graph, SignedGraph

_G6_HEADER = ">>graph6<<"
_MAX_N = 258047  # the largest vertex count graph6 encodes, and .sgl accepts


def _g6_size_bytes(n: int) -> str:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= _MAX_N:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"graph6 size {n} not supported")


def graph6_encode(g: Graph) -> str:
    """One-line graph6 encoding (no trailing newline): the reverse of
    :func:`graph6_decode`, packing :attr:`Graph.bits`."""
    k = g.n * (g.n - 1) // 2
    pad = -k % 6
    data = g.bits << pad
    return _g6_size_bytes(g.n) + "".join(
        chr((data >> s & 63) + 63) for s in range(k + pad - 6, -1, -6))


def _g6_char(ch: str) -> str:
    """A rejected character for an error message: a byte the reader decoded
    to a lone surrogate is shown as that byte, e.g. ``0xc3``."""
    code = ord(ch)
    return f"0x{code - 0xDC00:02x}" if 0xDC80 <= code <= 0xDCFF else repr(ch)


def graph6_decode(line: str, lineno: int | None = None) -> Graph:
    """Decode a single graph6 line."""
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 record", lineno)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ParseError(f"graph6 sizes above {_MAX_N} not supported", lineno)
        if len(s) < 4:
            raise ParseError("truncated graph6 size", lineno)
        n = 0
        for ch in s[1:4]:
            v = ord(ch) - 63
            if not 0 <= v <= 63:
                raise ParseError(f"bad graph6 byte {_g6_char(ch)}", lineno)
            n = (n << 6) | v
        pos = 4
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ParseError(f"bad graph6 size byte {_g6_char(s[0])}", lineno)
        pos = 1
    need = n * (n - 1) // 2
    data = 0
    for ch in s[pos:]:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ParseError(f"bad graph6 byte {_g6_char(ch)}", lineno)
        data = (data << 6) | v
    pad = 6 * (len(s) - pos) - need
    if not 0 <= pad < 6:
        raise ParseError(
            f"graph6 record has {need + pad} data bits, expected {need}", lineno)
    if data & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits in graph6 record", lineno)
    return Graph.from_bits(n, data >> pad)


def read_graph6(path: str) -> Iterator[Graph]:
    """Graphs from a graph6 file, one per non-blank line, lazily."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            s = raw.strip()
            if not s or s == _G6_HEADER:
                continue
            yield graph6_decode(s, lineno)


def write_graph6(graphs: Iterable[Graph], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(graph6_encode(g) + "\n")


# ---------------------------------------------------------------------------
# signed graph lines

def sgl_dumps(sgs: Iterable[SignedGraph]) -> str:
    """Serialize records, blank-line separated, trailing newline."""
    out = []
    for sg in sgs:
        lines = [str(sg.n)]
        for u, v, s in sg.signed_edges:
            lines.append(f"{u} {v} {'+' if s == 1 else '-'}")
        out.append("\n".join(lines))
    return "\n\n".join(out) + ("\n" if out else "")


def sgl_loads(text: str) -> list[SignedGraph]:
    """Parse records; raises :class:`ParseError` with a line number."""
    records: list[SignedGraph] = []
    n: int | None = None
    edges: set[Edge] = set()
    negatives: list[Edge] = []

    def flush():
        # every bad edge was rejected at its own line, so this cannot fail
        nonlocal n, edges, negatives
        if n is None:
            return
        records.append(SignedGraph(Graph(n, frozenset(edges)), frozenset(negatives)))
        n = None
        edges, negatives = set(), []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():  # keeps isdigit below to ASCII digits too
            raise ParseError("non-ASCII character", lineno)
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1 or not parts[0].isdigit():
                raise ParseError(f"expected a vertex count, got {raw.strip()!r}",
                                 lineno)
            digits = parts[0].lstrip("0") or "0"  # int() refuses over 4,300 digits
            if len(digits) > 6 or int(digits) > _MAX_N:
                raise ParseError(f"vertex count above {_MAX_N}", lineno)
            n = int(digits)
            continue
        if len(parts) != 3:
            raise ParseError(f"expected 'u v sign', got {raw.strip()!r}", lineno)
        su, sv, ss = parts
        if not (su.isdigit() and sv.isdigit()):
            raise ParseError(f"bad endpoints {su!r} {sv!r}", lineno)
        if len(su) > 6 or len(sv) > 6:  # int() refuses over 4,300 digits
            su, sv = su.lstrip("0") or "0", sv.lstrip("0") or "0"
            if len(su) > 6 or len(sv) > 6:
                raise ParseError(f"edge endpoint above {_MAX_N}", lineno)
        u, v = int(su), int(sv)
        if u >= v:
            raise ParseError(f"edge must satisfy u < v, got {u} {v}", lineno)
        if v >= n:
            raise ParseError(f"edge ({u},{v}) out of range for n={n}", lineno)
        if ss not in ("+", "-"):
            raise ParseError(f"sign must be '+' or '-', got {ss!r}", lineno)
        if (u, v) in edges:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        edges.add((u, v))
        if ss == "-":
            negatives.append((u, v))
    flush()
    return records


def read_sgl(path: str) -> list[SignedGraph]:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return sgl_loads(fh.read())


def write_sgl(sgs: Iterable[SignedGraph], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(sgl_dumps(sgs))
