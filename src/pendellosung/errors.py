"""Exception types shared across the toolkit, and the argument checks every
module uses: _integer for integer arguments, _real for real ones and
_real_array for real arrays."""

import math
import numbers
import operator


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


def _integer(value, ok, message: str) -> int:
    """operator.index(value) if value is not a bool and ok accepts it, else
    ValueError(message): the library's one integer check."""
    try:
        if not isinstance(value, bool) and ok(n := operator.index(value)):
            return n
    except TypeError:
        pass
    raise ValueError(message)


def _real(value, ok, message: str) -> float:
    """float(value) if value is a real number that ok accepts, else
    ValueError(message): the library's one real check. A bool (numpy's
    too), a string, None and an int past the float range are refused."""
    if type(value) is float and ok(value):  # the common case, already a float
        return value
    try:
        if (isinstance(value, float) or isinstance(value, numbers.Real)  # np.float64: no ABC
                and not isinstance(value, bool)) and ok(x := float(value)):
            return x
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(message)


def _real_array(a, message: str):
    """a as a float64 numpy array if it holds real numbers, else
    ValueError(message); values are not range-checked. A numpy array is
    judged by its dtype: bools, strings, bytes, complex numbers and objects
    are refused. Anything else, a scalar, a list or a tuple, is checked entry
    by entry as _real checks a scalar, before numpy could make a bool a
    float or an int past 64 bits an object."""
    import numpy as np  # local, so that errors itself does not need numpy

    if not isinstance(a, np.ndarray):
        entries = np.asarray(a, dtype=object)
        return np.array([_real(v, _any, message) for v in entries.flat],
                        dtype=float).reshape(entries.shape)
    if a.dtype.kind in "iuf":
        return a.astype(float, copy=False)
    raise ValueError(message)


def _any(v: float) -> bool:
    return True


def _positive(v: float) -> bool:
    return 0 < v < math.inf


def _non_negative(v: float) -> bool:
    return 0 <= v < math.inf
