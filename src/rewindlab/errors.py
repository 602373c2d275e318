"""Exception types shared across the package."""


class RewindlabError(Exception):
    """Base class for all package errors."""


class InvalidShapeError(RewindlabError):
    """Circuit shape violates a family invariant (sizes, parity)."""


class InvalidTargetError(RewindlabError):
    """Recycle target indices are out of range for the circuit."""


class PreconditionError(RewindlabError):
    """Path-count endpoints violate the band constraint."""


class IntegralityError(RewindlabError):
    """Trigonometric path sum failed to land on an integer."""


class TooLargeError(RewindlabError):
    """Requested computation exceeds the configured size cap."""


class UnsupportedFamilyError(RewindlabError):
    """Layout geometry cannot be mapped to a spin lattice."""


class UnsupportedRegimeError(RewindlabError):
    """Parameters fall outside the regimes covered by a closed form."""


class InvalidParameterError(RewindlabError):
    """Channel constructor parameter out of range."""


class NotTracePreservingError(RewindlabError):
    """Kraus operators do not satisfy the completeness relation."""

    def __init__(self, residual: float):
        super().__init__(f"channel is not trace preserving (residual {residual:.3e})")
        self.residual = residual
