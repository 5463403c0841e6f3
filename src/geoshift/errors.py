"""Exception types shared across the toolkit."""


class GeoshiftError(Exception):
    """Base class for all toolkit errors."""


class FormatError(GeoshiftError):
    """A group presentation file or serialized artifact is malformed."""


class UnknownLetter(GeoshiftError):
    """A word uses a letter that is not part of the generating set."""


class ResourceLimit(GeoshiftError):
    """An enumeration or search exceeded its configured budget."""


class EmptySphere(GeoshiftError):
    """A sphere that was asked for contains no elements."""


class StabilizationFailure(GeoshiftError):
    """No automaton level up to the configured maximum validated.

    Carries the validation report of the last attempt so callers can see
    the first radius where path counts diverged from the search oracle.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonConvergence(GeoshiftError):
    """An iterative eigenvalue or fixed-point computation did not converge."""
