"""Exception and warning types shared across the library."""


class EvfError(Exception):
    """Base class for all library-specific errors."""


class UnitParseError(EvfError, ValueError):
    """A quantity string could not be parsed into SI units."""


class ZeroFieldError(EvfError, ValueError):
    """Operation is undefined at zero longitudinal field."""


class EvanescentModeError(EvfError, ValueError):
    """Transverse magnetic energy meets or exceeds the total energy."""


class UnsupportedOrderError(EvfError, ValueError):
    """Polynomial order beyond the documented stability ceiling."""


class NotAnEigenstateError(EvfError, ValueError):
    """Analytic sampling requested for a configuration that does not
    propagate self-similarly; use the numerical propagator instead."""


class InvalidGridError(EvfError, ValueError):
    """Grid sample count or side length is outside the supported range."""


class InvalidModeError(EvfError, ValueError):
    """Mode indices do not define the requested mode or superposition."""


class GridMismatchError(EvfError, ValueError):
    """Fields or plans defined on different grids were combined."""


class StepTooLargeError(EvfError, ValueError):
    """Propagation step violates the step bound of its scheme."""


class ContainmentError(EvfError, RuntimeError):
    """Significant intensity reached the grid border; the grid is mis-sized
    for the beam being propagated."""


class CarrierResolutionError(EvfError, ValueError):
    """Hologram carrier fringes are not resolved by the grid."""


class OrderSeparationError(EvfError, RuntimeError):
    """Diffraction orders overlap; windowed extraction would be unreliable."""


class NoPatternError(EvfError, RuntimeError):
    """Angular profile lacks the harmonic content needed to define an
    orientation."""


class GridAdequacyWarning(UserWarning):
    """Grid resolves or contains the beam poorly; results may be degraded."""
