"""Exception hierarchy shared by all cqcount modules."""

from __future__ import annotations


class CqcountError(Exception):
    """Base class for all errors raised by this package."""


class QueryParseError(CqcountError):
    """Raised when query text cannot be tokenized or parsed.

    Carries the character offset of the failure and a description of what
    was expected there.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)


class QueryValidationError(CqcountError):
    """A syntactically well-formed query violates a structural invariant."""


class ContradictionError(QueryValidationError):
    """A disequality collapsed onto a single variable; no assignment can satisfy it."""


class DatabaseParseError(CqcountError):
    """A database or graph file cannot be read as its format at all."""


class DatabaseValidationError(CqcountError):
    """A database document violates a structural invariant."""


class PairValidationError(CqcountError):
    """A query/database pair is incompatible (missing symbol or arity clash)."""


class DecompositionError(CqcountError):
    """A tree decomposition argument is invalid or not nice where required."""


class UncoverableVertexError(CqcountError):
    """A hypergraph vertex lies in no hyperedge, so no fractional edge cover exists."""


class UnsupportedQueryError(CqcountError):
    """The query is outside the fragment an operation supports (e.g. not a plain CQ)."""


class BudgetExceededError(CqcountError):
    """An explicit work budget (enumeration guard, oracle-call cap) was exhausted."""


class LimitExceededError(CqcountError):
    """A configured structural limit (vertex count, width, state count) was exceeded."""


class LPError(CqcountError):
    """Base class for linear-programming failures."""


class LPUnboundedError(LPError):
    """The linear program's objective is unbounded."""
