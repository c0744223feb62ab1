"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary bad inputs; the classes here exist
because callers tell them apart: the command-line interface maps capacity
and parse errors to their own exit codes, and a violation carries its
counterexample.
"""

from __future__ import annotations


class CapacityError(Exception):
    """A requested computation exceeds a hard size cap."""


class ParseError(Exception):
    """Malformed input file; carries the offending location."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(ValueError):
    """A structural precondition on a graph does not hold."""


class TheoremViolation(Exception):
    """A verified statement failed on a concrete instance.

    Carries the instance so callers can serialize the counterexample instead
    of losing it in a traceback.
    """

    def __init__(self, kind: str, record: dict, sgl_text: str):
        self.kind = kind
        self.record = record
        self.sgl_text = sgl_text
        super().__init__(f"{kind} violated: {record}")
