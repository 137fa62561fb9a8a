"""Exception types shared across the package."""


class SpinRotError(Exception):
    """Base class for spinrot-specific failures."""


class ConfigError(SpinRotError, ValueError):
    """Invalid or unparseable run configuration."""


class OutOfDomainError(SpinRotError, ValueError):
    """Sample time outside a tabulated trajectory's domain."""


class SingularityError(SpinRotError, ArithmeticError):
    """The invariant's lambda reached a pole's guard band, or gamma turned too far in one step."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NoSolutionError(SpinRotError, ValueError):
    """Degenerate geometry: no precession-locked cone angle exists."""


class GridMismatchError(SpinRotError, ValueError):
    """Two time series were expected on the same grid but differ."""
