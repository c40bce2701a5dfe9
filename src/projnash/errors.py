"""Exception types shared across the package."""

from __future__ import annotations


class ProjnashError(Exception):
    """Base class for every error raised by this package."""


class InputError(ProjnashError, ValueError):
    """A caller violated an operation's preconditions (bad dimension,
    out-of-range argument, infeasible construction, ...)."""


class ParseError(InputError):
    """Problem-file text could not be parsed.

    Carries the 1-based ``line`` and ``col`` of the offending token when
    there is one (a missing player declaration has none).
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line} col {col}: {message}"
        super().__init__(message)


class HypothesisError(InputError):
    """A structural hypothesis failed during instance validation.

    ``witness`` holds the probe point at which the violation was observed.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        if witness is not None:
            message = f"{message} (witness: {witness})"
        super().__init__(message)


class NonConvergenceError(ProjnashError, RuntimeError):
    """An iterative routine hit its iteration cap while still moving.

    ``last_iterate`` carries the final point so callers can inspect or
    restart from it.
    """

    def __init__(self, message: str, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)
