"""Command-line interface.

Subcommands: ``invariants`` (records for .sgl input), ``classify``
(unicyclic nullity cases), ``verify`` (exhaustive campaign with report
file), ``generate`` (extremal family construction), ``sachs``
(combinatorial coefficients against the exact characteristic polynomial).

Exit codes are a stable contract: 0 success, 1 usage error, 2 theorem
violation (a counterexample artifact is written), 3 capacity exceeded,
4 parse error.

Campaign reports contain no timing data, so identical configurations
produce byte-identical files; wall time goes to stderr. When ``--out``
is a regular file (also behind symlinks), ``verify`` writes its report
to a temporary file beside it and renames that onto it once the campaign
has finished, so a failed campaign leaves an earlier report as it was
(and no file where there was none); a device such as ``/dev/null`` is
written directly. Report schema:
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

from .errors import CapacityError, ParseError, TheoremViolation
from .formats import read_graph6, read_sgl, write_sgl
from .linalg import char_poly_exact, sachs_coefficients, signed_adjacency
from .theorems import (FamilyParams, _dump_line, classify_unicyclic, gap_scan,
                       generate_family, invariant_record, unicyclic_case)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAPACITY = 3
EXIT_PARSE = 4


class UsageError(Exception):
    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; this contract needs 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _open_out(path: Optional[str]):
    """The file at ``path``, closed on exit, or standard output, left open."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="ascii")


@contextlib.contextmanager
def _replacing(path: str):
    """A file for the new content of the existing file ``path``.

    A regular file, also behind symlinks, is replaced only when the block
    finishes, by renaming a temporary sibling with its permissions onto
    it, so a failure leaves it as it was; the temporary file is removed on
    any exception. Anything else, such as ``os.devnull`` or a pipe, is
    written directly.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    fd, part = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".part")
    try:
        with open(fd, "w", encoding="ascii") as fh:
            os.chmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def cmd_invariants(args) -> int:
    records = read_sgl(args.input)
    with _open_out(args.out) as out:
        for sg in records:
            rec = invariant_record(sg, check=False)
            out.write(_dump_line(rec.to_json_dict()) + "\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    records = read_sgl(args.input)
    disagreed = False
    with _open_out(args.out) as out:
        for i, sg in enumerate(records):
            try:
                offset = classify_unicyclic(sg)
            except ValueError as exc:
                out.write(_dump_line({"index": i, "error": str(exc)}) + "\n")
                continue
            rec = invariant_record(sg, check=False)
            predicted = rec.n - 2 * rec.m + offset
            agree = predicted == rec.eta
            disagreed = disagreed or not agree
            out.write(_dump_line({
                "index": i, "case": unicyclic_case(offset),
                "predicted_eta": predicted, "computed_eta": rec.eta,
                "agreement": agree}) + "\n")
    return EXIT_VIOLATION if disagreed else EXIT_OK


def cmd_verify(args) -> int:
    source = None
    if args.source != "internal":
        source = read_graph6(args.source[len("graph6:"):])
    # a bad --out fails before the campaign; a file this check creates is
    # removed again if the campaign fails
    created = not os.path.exists(args.out)
    open(args.out, "a", encoding="ascii").close()
    try:
        with _replacing(args.out) as fh:
            started = time.monotonic()
            report = gap_scan(n_max=args.n_max, c_max=args.c_max, source=source,
                              source_label=args.source, workers=args.workers,
                              emit=fh.write if args.emit_all else None)
            elapsed = time.monotonic() - started
            if not args.emit_all:
                fh.write(json.dumps(report.to_json_dict(), sort_keys=True,
                                    indent=2) + "\n")
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(os.path.realpath(args.out))
        raise

    bad = report.violations + report.upper_check["disagreements"]
    if bad:
        cpath = args.out + ".counterexamples.json"
        with open(cpath, "w", encoding="ascii") as fh:
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
    write_sgl([sg], args.out)
    rec = invariant_record(sg, check=False)
    ok = pred == rec
    print("quantity  predicted  computed")
    for name in ("n", "m", "c", "eta", "s"):
        print(f"{name:<9} {getattr(pred, name):>9}  {getattr(rec, name):>8}")
    print(f"written to {args.out}; match: {ok}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_sachs(args) -> int:
    records = read_sgl(args.input)
    mismatched = False
    with _open_out(args.out) as out:
        for i, sg in enumerate(records):
            coeffs = sachs_coefficients(sg)
            oracle = char_poly_exact(signed_adjacency(sg))
            agree = coeffs == oracle
            mismatched = mismatched or not agree
            out.write(_dump_line({"index": i, "coefficients": list(coeffs),
                                  "agrees_char_poly": agree}) + "\n")
    return EXIT_VIOLATION if mismatched else EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="snlab",
                description="Signed-graph nullity invariants and exhaustive "
                            "verification campaigns.")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("invariants", help="invariant records for .sgl input")
    pi.add_argument("input", help=".sgl file")
    pi.add_argument("--out", help="output path (default stdout)")
    pi.set_defaults(func=cmd_invariants)

    pc = sub.add_parser("classify",
                        help="nullity case of unbalanced unicyclic graphs")
    pc.add_argument("input", help=".sgl file")
    pc.add_argument("--out", help="output path (default stdout)")
    pc.set_defaults(func=cmd_classify)

    pv = sub.add_parser("verify", help="exhaustive verification campaign")
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

    pg = sub.add_parser("generate", help="build an extremal family member")
    pg.add_argument("triangles", type=int,
                    help="number of balanced 3-cycle blocks")
    pg.add_argument("hexagons", type=int,
                    help="number of unbalanced 6-cycle blocks")
    pg.add_argument("tailed_squares", type=int,
                    help="number of tailed 4-cycle blocks")
    pg.add_argument("--out", required=True, help=".sgl output path")
    pg.set_defaults(func=cmd_generate)

    ps = sub.add_parser("sachs",
                        help="combinatorial coefficients vs characteristic "
                             "polynomial")
    ps.add_argument("input", help=".sgl file")
    ps.add_argument("--out", help="output path (default stdout)")
    ps.set_defaults(func=cmd_sachs)
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
    except UsageError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
