"""Exception types shared across the package."""


class DiskflowError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DiskflowError, ValueError):
    """Invalid configuration or parameter value.

    key holds the dotted path of the offending entry when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class GridError(ConfigError):
    """Grid parameters violate a hard constraint."""


class EllipticSolveError(DiskflowError):
    """An elliptic solve failed."""


class CirculationError(EllipticSolveError):
    """Mode-0 problem is ill-posed: net vorticity mass exceeds tolerance."""


class NonFiniteFieldError(ValueError):
    """A field constructor was handed NaN or Inf values."""


class BoundaryTagError(ValueError):
    """A velocity field violates its boundary tag on the r = 1 ring."""


class NumericalFailure(DiskflowError):
    """Time integration aborted.

    kind is one of 'nan', 'cfl', 'tail_mass', 'solve' (an elliptic solve
    failed in a run); time and detail locate the failure for diagnostics,
    detail 'initial' while a run forms its initial state.
    """

    def __init__(self, message, kind, time=None, detail=None):
        super().__init__(message)
        self.kind = kind
        self.time = time
        self.detail = detail


class DegenerateFitError(DiskflowError, ValueError):
    """Rate fit rejected: nonpositive values or too few points."""
