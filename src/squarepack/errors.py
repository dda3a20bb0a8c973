"""Exception hierarchy shared across the package."""

import math


class SquarepackError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(SquarepackError):
    """Region dimensions violate the mode's size or parity constraints."""


class OverlapError(SquarepackError):
    """Two tile centers are within ell-infinity distance 1 of each other."""


class BoundaryConflict(SquarepackError):
    """An interior tile overlaps the implicit fully-packed exterior."""


class RegionOutOfBounds(SquarepackError):
    """A queried face region extends outside the configuration's domain."""


class ParseError(SquarepackError):
    """Malformed text in the ASCII codec. Carries line/column context."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class NonpositiveFugacity(SquarepackError):
    """Fugacity must be strictly positive and finite."""


def check_fugacity(lam: float) -> None:
    """NonpositiveFugacity unless 0 < lam < inf; nan fails too."""
    if not 0 < lam < math.inf:
        raise NonpositiveFugacity(f"fugacity must be positive and finite, got {lam}")


class OddLength(SquarepackError):
    """One-dimensional system length must be even."""


class TooLarge(SquarepackError):
    """Requested exact computation exceeds the configured enumeration cap."""


class OutOfFloatRange(SquarepackError):
    """A requested value lies beyond the float range."""


class BlockConditionViolated(SquarepackError):
    """The block rectangle does not tile the torus as required."""


class GeometryMismatch(SquarepackError):
    """Torus/block geometry does not match the reflection-positivity setup."""


class WrapError(SquarepackError):
    """A window-based computation would wrap around the torus."""


class ShapeMismatch(SquarepackError):
    """Two configurations with different dimensions or boundary modes."""


class InsufficientData(SquarepackError):
    """Not enough samples or usable lags to perform the requested fit."""


class SpecError(SquarepackError):
    """An experiment spec file is malformed or references missing inputs."""


class ParameterError(SquarepackError, ValueError):
    """A chain parameter, phase name or thread count is out of range;
    also a ValueError, which these errors were before."""


class UsageError(SquarepackError):
    """The command line does not parse: an unknown subcommand or option,
    or a missing or malformed value."""


class IoError(SquarepackError):
    """Failed to read or write an artifact file."""
