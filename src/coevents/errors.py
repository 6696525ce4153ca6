"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class CoeventsError(Exception):
    """Base class for all errors raised by this package."""


class MismatchedSpace(CoeventsError):
    """Operands are bound to different sample spaces / coevent spaces."""


class UnknownHistory(CoeventsError):
    """A history label is not part of the sample space."""


class CapExceeded(CoeventsError):
    """An enumeration would exceed its size cap.

    Carries enough context for a caller (notably the CLI) to tell the
    user which cap fired and how to override it; ``override`` is None for
    a hard cap, which nothing lifts.
    """

    def __init__(
        self, what: str, limit: int, requested: int, override: Optional[str] = "--cap"
    ):
        self.what = what
        self.limit = limit
        self.requested = requested
        self.override = override
        how = "hard cap, no override" if override is None else f"override with {override}"
        super().__init__(f"{what}: size {requested} exceeds cap {limit} ({how})")


class InvalidPartition(CoeventsError):
    """Blocks are empty, overlapping, or do not cover the sample space."""


class EmptyEventDual(CoeventsError):
    """Dual of the empty event requested without include_empty_dual."""


class NotMultiplicative(CoeventsError, ValueError):
    """Operation requires a multiplicative coevent."""


class ZeroCoevent(CoeventsError):
    """Operation requires a nonzero coevent."""


class NotUpperMode(CoeventsError):
    """Operation requires a union/intersection (upper) completion."""


class ParseError(CoeventsError):
    """A theory file is not syntactically well formed."""


class ValidationError(CoeventsError):
    """A theory file parses but violates a structural invariant."""
