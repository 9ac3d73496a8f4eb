"""Exception hierarchy shared by all ipn modules."""

from __future__ import annotations


class IPNError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IPNError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(IPNError):
    """An iterative scheme (Newton continuation, root isolation) failed."""


class PreconditionError(IPNError):
    """A verification routine was invoked with an inadmissible configuration."""


class AmbiguousSpike(IPNError):
    """A spike sits too close to an admissible-set boundary to classify reliably."""
