"""Exception types shared across the toolkit."""


class PendellosungError(Exception):
    """Base class for all toolkit errors."""


class NoReflection(PendellosungError):
    """Bragg condition cannot be met (sin(theta) would exceed 1)."""


class ForbiddenReflection(PendellosungError):
    """Operation requested on a reflection with zero structure factor."""


class EmptyWindow(PendellosungError):
    """Wavelength/angle windows do not overlap."""


class FormFactorRangeError(PendellosungError):
    """Momentum transfer outside the tabulated form-factor domain."""


class InsufficientData(PendellosungError):
    """Not enough measurements to constrain the requested fit."""


class DegenerateDesign(PendellosungError):
    """Measurements or planned reflections cannot constrain the requested
    fit: coincident or collinear abscissas, a singular design matrix, a
    geometry carrying no signal, or a zero-sigma (infinite-weight) datum."""


class ConfigError(PendellosungError):
    """Malformed or inconsistent run configuration."""
