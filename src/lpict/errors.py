"""Shared exception types."""


class LpictError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LpictError):
    """Raised on malformed textual input; carries a position when known."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (at offset {position})"
        super().__init__(message + where)


class ValidationError(LpictError):
    """A structured value violates one of its invariants. `subject`, if any, is
    the part a guarded system rejects: a transition or a (keyword, id) pair."""

    def __init__(self, message: str, subject=None):
        super().__init__(message)
        self.subject = subject


class ModelValidationError(ParseError, ValidationError):
    """A model file's guarded system is invalid; `line` declares the part at fault."""


class FragmentError(LpictError):
    """A formula falls outside the implication-chain fragment."""


class AtomBudgetError(LpictError):
    """Too many distinct atoms for exhaustive valuation enumeration."""


class BranchingPathError(LpictError):
    """The transition relation is not a single chain from initial to terminal."""


class MissingEnvironmentError(LpictError):
    """The model does not declare the requested environment."""
