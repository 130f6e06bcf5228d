"""Exception types shared across the toolkit."""


class PendellosungError(Exception):
    """Base class for all toolkit errors."""


class NoReflection(PendellosungError):
    """Bragg condition cannot be met (sin(theta) would exceed 1)."""


class ForbiddenReflection(PendellosungError):
    """Operation requested on a reflection with zero structure factor."""


class EmptyWindow(PendellosungError):
    """Wavelength/angle windows do not overlap."""


class SurveyTooLarge(PendellosungError):
    """A window would send the survey walk past its fixed bound on
    h^2 + k^2 + l^2 (planner.MAX_WALK_N_SQ)."""


class FormFactorRangeError(PendellosungError):
    """Momentum transfer outside the tabulated form-factor domain."""


class InsufficientData(PendellosungError):
    """Not enough measurements to constrain the requested fit."""


class DegenerateDesign(PendellosungError):
    """Measurements or planned reflections cannot constrain the requested
    fit: coincident or collinear abscissas, a singular design matrix, a
    geometry carrying no signal, a zero-sigma (infinite-weight) datum, or
    a (000) row, which is the forward beam rather than a reflection."""


class ConfigError(PendellosungError):
    """Malformed or inconsistent run configuration."""
