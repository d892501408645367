"""Shared exception types."""


class DomainError(ValueError):
    """An argument is outside the domain of the operation."""


class CompositionError(DomainError):
    """Two morphisms do not compose (source/target mismatch)."""


class PreconditionError(DomainError):
    """A stated precondition does not hold (e.g. mismatched marginals)."""


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured cap.

    Raised instead of truncating silently; carries the cap, the size
    estimate that tripped it when known, and the stage (the enumerating
    function) that raised it.
    """

    def __init__(self, message, cap=None, estimate=None, stage=None):
        super().__init__(message)
        self.cap = cap
        self.estimate = estimate
        self.stage = stage
