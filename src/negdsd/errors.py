"""Exception types raised across the package.

Every contract violation derives from :class:`NegDsdError`, itself a
``ValueError``, so callers who do not care about the fine-grained class can
catch either.
"""


class NegDsdError(ValueError):
    """Base class for argument and contract violations in this package."""


class NegativeMagnitudeError(NegDsdError):
    """A weight magnitude was negative; the sign lives in the field, not the value."""


class EmptySetError(NegDsdError):
    """An operation that needs a nonempty node set received an empty one."""


class UnknownNodeError(NegDsdError):
    """A node id falls outside the graph's 0..n-1 range."""


class ZeroDenominatorError(NegDsdError):
    """Objective parameters would allow a zero denominator (lambda2 <= 0)."""


class NonPositiveCError(NegDsdError):
    """Peeling score multiplier must be strictly positive."""


class EmptyCListError(NegDsdError):
    """The multiplier sweep needs at least one value."""


class NegativeWeightError(NegDsdError):
    """An operation restricted to nonnegative-weight graphs saw a negative ``weight`` on edge (``u``, ``v``)."""

    def __init__(self, u, v, weight: float):
        super().__init__(f"edge ({u}, {v}) has negative weight {weight}")
        self.u, self.v, self.weight = u, v, weight


class TooLargeError(NegDsdError):
    """Exhaustive enumeration was asked for a graph beyond its size cap."""


class BadParametersError(NegDsdError):
    """Generator or query parameters violate their documented ranges."""


class UnknownLayerError(NegDsdError):
    """A layer label does not occur in the multilayer graph."""


class OutOfRangeError(NegDsdError):
    """A probability or moment lies outside its admissible range."""


class EmptyFilmographyError(NegDsdError):
    """Both movie sets are empty, so no co-star edge is defined."""


class ParseError(NegDsdError):
    """An input file line could not be parsed; carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
