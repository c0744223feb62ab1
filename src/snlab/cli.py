"""Command-line interface.

Subcommands: ``invariants`` (records for .sgl input), ``classify``
(unicyclic nullity cases), ``verify`` (exhaustive campaign with report
file), ``generate`` (extremal family construction), ``sachs``
(combinatorial coefficients against the exact characteristic polynomial).

Exit codes are a stable contract: 0 success, 1 usage error or a path
that cannot be read or written, 2 a checked statement failed on some
input (``verify`` writes the counterexamples beside its report), 3
capacity exceeded, 4 parse error.

Campaign reports contain no timing data, so identical configurations
produce byte-identical files; wall time goes to stderr. Every command
writes its ``--out`` through one writer, :func:`_output`: the path is
opened for appending before any work, so a bad path fails at once, and a
regular file (also behind symlinks) gets its content in a temporary file
beside it, renamed onto it once the command has succeeded, so a failed
command leaves an earlier file as it was (and no file where there was
none); a device such as ``/dev/null`` is written directly. The
per-record commands parse their whole input before they open ``--out``.
Report schema:
without ``--emit-all`` a single JSON object with keys ``config``,
``totals``, ``histogram`` (slack counts keyed by "n,c"), ``violations``
and ``upper_check``; with ``--emit-all`` JSON-lines, one object per
(graph, signature) with keys ``graph6``, ``negatives``, ``n``, ``m``,
``c``, ``eta``, ``balanced``, ``lower``, ``upper``, ``s``. The lines are
formatted by the scanning processes and written in chunk order as the
chunks arrive. Chunks are cut by graph count and a graph has 2^c classes,
so memory follows the text of the largest chunk: K8 alone peaks at 911 MB
with ``--emit-all``, 20 MB without (2-core Xeon). A child holds one
chunk's text, with its pickle, until the main process reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile
import time
from typing import Optional, Sequence

from .errors import CapacityError, ParseError
from .formats import read_graph6, read_sgl, sgl_dumps
from .linalg import char_poly_exact, sachs_coefficients, signed_adjacency
from .theorems import (FamilyParams, _dump_line, classify_unicyclic, gap_scan,
                       generate_family, invariant_record, unicyclic_case)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAPACITY = 3
EXIT_PARSE = 4


class UsageError(Exception):
    """Bad usage of the command line: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; this contract needs 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@contextlib.contextmanager
def _output(path: Optional[str]):
    """A text file for the new content of ``path``; standard output, left
    open, when ``path`` is None.

    ``path`` is opened for appending first, so a bad path fails before any
    work. A regular file, also behind symlinks, is replaced only when the
    block finishes, by renaming a temporary sibling with its permissions
    onto it; on any exception the temporary file is removed, and so is the
    file if that first open created it. Anything else, such as
    ``os.devnull`` or a pipe, is written directly.
    """
    if path is None:
        yield sys.stdout
        return
    created = not os.path.exists(path)
    open(path, "a", encoding="ascii").close()
    part = None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            with open(path, "w", encoding="ascii") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        fd, part = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".part")
        with open(fd, "w", encoding="ascii") as fh:
            os.chmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(part, target)
    except BaseException:
        for name in (part, os.path.realpath(path) if created else None):
            if name is not None:
                with contextlib.suppress(OSError):
                    os.remove(name)
        raise


def _each_record(args) -> int:
    """One JSON line per record of the .sgl input, from the command's
    ``answer(index, record)``, which also says whether its checks agree;
    the input is parsed before ``--out`` is opened."""
    records = read_sgl(args.input)
    disagreed = False
    with _output(args.out) as out:
        for i, sg in enumerate(records):
            line, agree = args.answer(i, sg)
            disagreed = disagreed or not agree
            out.write(_dump_line(line) + "\n")
    return EXIT_VIOLATION if disagreed else EXIT_OK


def _invariants(i, sg) -> tuple[dict, bool]:
    return invariant_record(sg, check=False).to_json_dict(), True


def _classify(i, sg) -> tuple[dict, bool]:
    try:
        offset = classify_unicyclic(sg)
    except ValueError as exc:
        return {"index": i, "error": str(exc)}, True
    rec = invariant_record(sg, check=False)
    predicted = rec.n - 2 * rec.m + offset
    agree = predicted == rec.eta
    return {"index": i, "case": unicyclic_case(offset),
            "predicted_eta": predicted, "computed_eta": rec.eta,
            "agreement": agree}, agree


def _sachs(i, sg) -> tuple[dict, bool]:
    coeffs = sachs_coefficients(sg)
    agree = coeffs == char_poly_exact(signed_adjacency(sg))
    return {"index": i, "coefficients": list(coeffs),
            "agrees_char_poly": agree}, agree


def cmd_verify(args) -> int:
    source = None
    if args.source != "internal":
        source = read_graph6(args.source[len("graph6:"):])
    with _output(args.out) as fh:
        started = time.monotonic()
        report = gap_scan(n_max=args.n_max, c_max=args.c_max, source=source,
                          source_label=args.source, workers=args.workers,
                          emit=fh.write if args.emit_all else None)
        elapsed = time.monotonic() - started
        if not args.emit_all:
            fh.write(json.dumps(report.to_json_dict(), sort_keys=True,
                                indent=2) + "\n")

    bad = report.violations + report.upper_check["disagreements"]
    if bad:
        cpath = args.out + ".counterexamples.json"
        with _output(cpath) as fh:
            for rec in bad:
                fh.write(_dump_line(rec) + "\n")
        print(f"{len(bad)} violation(s); counterexamples in {cpath}",
              file=sys.stderr)
    print(f"scanned {report.totals['graphs']} graphs, "
          f"{report.totals['signatures']} signatures in {elapsed:.2f}s; "
          f"violations: {len(report.violations)}, "
          f"upper-bound disagreements: "
          f"{len(report.upper_check['disagreements'])}",
          file=sys.stderr)
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_generate(args) -> int:
    try:
        params = FamilyParams(args.triangles, args.hexagons, args.tailed_squares)
    except ValueError as exc:
        raise UsageError(str(exc))
    sg, pred = generate_family(params)
    with _output(args.out) as fh:
        fh.write(sgl_dumps([sg]))
    rec = invariant_record(sg, check=False)
    ok = pred == rec
    print("quantity  predicted  computed")
    for name in ("n", "m", "c", "eta", "s"):
        print(f"{name:<9} {getattr(pred, name):>9}  {getattr(rec, name):>8}")
    print(f"written to {args.out}; match: {ok}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _build_parser() -> _Parser:
    p = _Parser(prog="snlab",
                description="Signed-graph nullity invariants and exhaustive "
                            "verification campaigns.")
    sub = p.add_subparsers(dest="command", required=True)
    # the per-record commands differ only in their answer to one record
    parsers = {}
    for name, answer, summary in (
            ("invariants", _invariants, "invariant records for .sgl input"),
            ("classify", _classify,
             "nullity case of unbalanced unicyclic graphs"),
            ("verify", None, "exhaustive verification campaign"),
            ("generate", None, "build an extremal family member"),
            ("sachs", _sachs,
             "combinatorial coefficients vs characteristic polynomial")):
        parsers[name] = sp = sub.add_parser(name, help=summary)
        if answer is not None:
            sp.add_argument("input", help=".sgl file")
            sp.add_argument("--out", help="output path (default stdout)")
            sp.set_defaults(func=_each_record, answer=answer)

    pv = parsers["verify"]
    pv.add_argument("--n-max", type=int, required=True,
                    help="largest vertex count to sweep")
    pv.add_argument("--c-max", type=int, default=None,
                    help="largest cycle-space dimension to keep")
    pv.add_argument("--source", default="internal",
                    help="'internal' or 'graph6:<path>'")
    pv.add_argument("--workers", type=int, default=1,
                    help="processes that scan, this one included")
    pv.add_argument("--emit-all", action="store_true",
                    help="write one JSON line per (graph, signature)")
    pv.add_argument("--out", required=True, help="report path")
    pv.set_defaults(func=cmd_verify)

    pg = parsers["generate"]
    pg.add_argument("triangles", type=int,
                    help="number of balanced 3-cycle blocks")
    pg.add_argument("hexagons", type=int,
                    help="number of unbalanced 6-cycle blocks")
    pg.add_argument("tailed_squares", type=int,
                    help="number of tailed 4-cycle blocks")
    pg.add_argument("--out", required=True, help=".sgl output path")
    pg.set_defaults(func=cmd_generate)
    return p


def _validate(args) -> None:
    if getattr(args, "n_max", None) is not None and args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    if getattr(args, "c_max", None) is not None and args.c_max < 0:
        raise UsageError("--c-max must be nonnegative")
    if getattr(args, "workers", None) is not None and args.workers < 1:
        raise UsageError("--workers must be at least 1")
    src = getattr(args, "source", None)
    if src is not None and src != "internal" and not src.startswith("graph6:"):
        raise UsageError("--source must be 'internal' or 'graph6:<path>'")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        return args.func(args)
    except (UsageError, OSError) as exc:  # a bad flag or path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    raise SystemExit(main())
