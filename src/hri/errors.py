"""Exception types shared across the toolkit.

The CLI maps these onto its exit codes: parse/decode problems are input
errors (1), invariant violations are validation errors (2), and OS-level
failures are I/O errors (3).
"""

from __future__ import annotations


class HriError(Exception):
    """Base class for all toolkit errors."""


class ParseError(HriError):
    """Malformed input content (CSV rows, JSON documents, canonical text).

    Carries enough position information to point at the offending spot:
    ``line`` is 1-based, ``column`` (when known) is 1-based.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str | None = None,
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        self.source = source
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
        if source is not None:
            where = f"{source}:{where}" if where else source
        super().__init__(f"{where}: {message}" if where else message)


class ValidationError(HriError):
    """A domain invariant does not hold (weight table, overlay, message...)."""


class DecodeError(HriError):
    """Malformed binary message; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, *, offset: int) -> None:
        self.offset = offset
        super().__init__(f"offset {offset}: {message}")
