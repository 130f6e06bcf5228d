"""Pendellosung fringe simulation for a flat blade with narrow slits.

The center-of-pattern intensity of a wavelength scan is

    I(lambda) ~ I0(lambda) lambda^2 |F|^2 J0^2(t |F| lambda / (a0^3 cos theta))

with t the blade thickness and |F| the unit-cell structure factor; the
argument is dimensionless once t (cm) and |F| (fm) are converted to
angstrom. Curvature and finite-slit corrections are out of scope: this is
the flat-crystal, narrow-slit expression exactly.

Fringe counting is reported under two conventions, since scans are read
out either in full periods of the squared Bessel envelope or in its
antinodes: period_count = delta(argument)/2pi and antinode_count =
delta(argument)/pi across the scanned window, both rounded to nearest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ANGSTROM_PER_CM, ANGSTROM_PER_FM
from .errors import NoReflection, PendellosungError, _integer, _positive, _real, _real_array
from .lattice import (
    CrystalSpec,
    Reflection,
    ScatteringModel,
    q_over_4pi,
    require_observable,
    structure_factor_magnitude,
)
from .planner import SpectrumWindow, reflection_window

# --- J0, Cephes-style double-precision rational approximations ---------
# Interval [0, 5]: (w - r1^2)(w - r2^2) P3(w)/Q8(w) on w = x^2, r1, r2 the
# first two zeros; interval (5, inf): Hankel form with 6/6 and 7/7
# rationals in (5/x)^2. Peak absolute error a few 1e-16.

_RP = [
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
]
_RQ = [
    1.0,
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
]
_PP = [
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
]
_PQ = [
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
]
_QP = [
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
]
_QQ = [
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
]
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_SQ2OPI = 7.9788456080286535588e-1  # sqrt(2/pi)
_PIO4 = 7.85398163397448309616e-1


def _polevl(x, coef):
    """Horner's rule on a fresh array, updated in place."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _j0_large(xl):
    """The Hankel form of J0, valid on xl > 5, reusing buffers in the
    operation order of the plain expression, so the bits are the same;
    xl is only read."""
    w = 5.0 / xl
    z = w * w
    p = _polevl(z, _PP)
    p /= _polevl(z, _PQ)
    q = _polevl(z, _QP)
    q /= _polevl(z, _QQ)
    q *= w
    xn = np.subtract(xl, _PIO4, out=w)
    p *= np.cos(xn, out=z)
    q *= np.sin(xn, out=xn)
    p -= q
    p *= _SQ2OPI
    p /= np.sqrt(xl, out=z)
    return p


def bessel_j0(x):
    """Bessel function J0; scalar in, float out; arrays pass through.

    Even in x, |J0| <= 1, absolute error well below 1e-9 over |x| <= 500.
    """
    scalar = np.isscalar(x)
    x = _real_array(x, "J0 arguments must be real numbers")
    # Flat, so that a 0-d input gives arrays, not numpy scalars, to the
    # in-place steps.
    ax = np.abs(x.reshape(-1))
    # The Hankel form on every entry; the entries <= 5, where it is meaningless
    # or inf, get the rational form, which most fringe-sweep tiles never need.
    with np.errstate(all="ignore"):
        out = _j0_large(ax)
    small = ax <= 5.0
    if small.any():
        axs = ax[small]
        z = axs ** 2
        p = (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _polevl(z, _RQ)
        tiny = axs < 1e-5
        if tiny.any():
            p[tiny] = 1.0 - z[tiny] / 4.0
        out[small] = p
    out = out.reshape(x.shape)
    return float(out) if scalar else out


# --- geometry, spectrum, profile ---------------------------------------

# Samples per profile tile: 128 KiB per float64 array, so a tile's
# temporaries stay in L2 however long the sweep is.
_SWEEP_BLOCK = 1 << 14


@dataclass(frozen=True)
class BladeGeometry:
    """Crystal blade of the given thickness in cm."""

    thickness_cm: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "thickness_cm", _real(self.thickness_cm, _positive,
                                                       "thickness must be positive and finite"))


@dataclass(frozen=True)
class BeamSpectrum:
    """Incident intensity model over a spectrum window.

    shape 'flat' is wavelength-independent (fringe counting never depends
    on I0); 'maxwellian' peaks at window.lambda_peak with the thermal-flux
    form (lp/l)^5 exp[5/2 (1 - lp^2/l^2)], normalized to 1 at the peak.
    """

    shape: str = "flat"
    window: SpectrumWindow = SpectrumWindow()

    def __post_init__(self):
        if self.shape not in ("flat", "maxwellian"):
            raise ValueError(f"unknown spectrum shape {self.shape!r}")

    def intensity(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.shape == "flat":
            return np.ones_like(lam)
        u = self.window.lambda_peak / lam
        return u**5 * np.exp(2.5 * (1.0 - u * u))


@dataclass(frozen=True)
class FringeProfile:
    lam: np.ndarray            # angstrom, strictly increasing
    two_theta_deg: np.ndarray
    argument: np.ndarray       # radians, strictly increasing
    intensity: np.ndarray      # normalized, max = 1


@dataclass(frozen=True)
class FringeCount:
    delta_argument: float  # radians across the scanned window
    period_count: int      # round(delta/2pi)
    antinode_count: int    # round(delta/pi)


def _sweep(crystal: CrystalSpec, r: Reflection, geom: BladeGeometry, f_mag: float,
           lam: np.ndarray, out=None):
    """Bragg angle theta (radians) and the J0 argument, for |F| = f_mag (fm),
    at each wavelength of lam (angstrom), the argument written into out if
    given; NoReflection, quoting the NaN count and the range of the rest of
    lam, unless 0 < sin(theta) <= 1, and PendellosungError if the argument
    overflows to infinity."""
    s = lam * q_over_4pi(crystal, r)
    # The largest sin(theta) has the largest |argument|. min and argmax pick
    # a NaN if any entry is one, and NaN fails both comparisons.
    top = s.argmax() if s.size else None
    if top is not None and not (s.min() > 0.0 and s.flat[top] <= 1.0):
        nan = np.isnan(lam)
        rest = lam[~nan]
        quoted = [f"NaN ({nan.sum()} of {lam.size} entries)"] if nan.any() else []
        quoted += [f"[{rest.min():.4g}, {rest.max():.4g}] A"] if rest.size else []
        raise NoReflection(f"({r.label()}): no Bragg angle for lambda in {' and '.join(quoted)}")
    # Through degrees and back, as np.radians(np.degrees(.)), whose loops
    # are these two products.
    theta = np.arcsin(s)
    theta *= 180.0 / math.pi
    theta *= math.pi / 180.0
    scale = geom.thickness_cm * ANGSTROM_PER_CM * f_mag * ANGSTROM_PER_FM
    den = np.cos(theta)
    den *= crystal.a0**3
    # The same IEEE steps on Python floats, which overflow without a warning.
    if top is not None and math.isinf(scale * float(lam.flat[top]) / float(den.flat[top])):
        raise PendellosungError(f"({r.label()}): J0 argument overflows at lambda = "
                                f"{lam.flat[top]:.4g} A (t = {geom.thickness_cm:.4g} cm)")
    arg = np.multiply(lam, scale, out=out)
    arg /= den
    return theta, arg


def pendellosung_argument(crystal: CrystalSpec, model: ScatteringModel,
                          r: Reflection, geom: BladeGeometry, lam):
    """Dimensionless J0 argument t |F| lambda / (a0^3 cos theta(lambda)).

    lam is one wavelength (float result) or an array of them, in angstrom.
    """
    require_observable(r)
    f_mag = structure_factor_magnitude(crystal, model, r)
    lam = _real_array(lam, "wavelengths must be real numbers")
    arg = _sweep(crystal, r, geom, f_mag, lam)[1]
    return float(arg) if np.ndim(arg) == 0 else arg


def intensity_profile(spectrum: BeamSpectrum, crystal: CrystalSpec,
                      model: ScatteringModel, r: Reflection,
                      geom: BladeGeometry, n_samples: int = 2000) -> FringeProfile:
    """Sample the center-of-pattern intensity over the usable window.

    Every step is elementwise, so the sweep is one pass over tiles of
    _SWEEP_BLOCK samples that stay in cache, each writing its wavelengths
    and then the rest into the result arrays; the bits equal a whole-array
    evaluation. The four result arrays are the rows of one (4, n) block:
    one allocation per profile, 32 bytes a sample.
    """
    n_samples = _integer(n_samples, lambda n: n >= 2, "n_samples must be an integer >= 2")
    require_observable(r)
    (lam_lo, lam_hi), _ = reflection_window(crystal, r, spectrum.window)
    lam, two_theta, arg, raw = np.empty((4, n_samples))
    f_mag = structure_factor_magnitude(crystal, model, r)
    # Each tile's lam is np.linspace's steps, i * step + lo, with the end set
    # to hi before the last tile is swept. (linspace differs only where a
    # nonzero width gives a step that underflows to zero.)
    step = (lam_hi - lam_lo) / (n_samples - 1)
    for start in range(0, n_samples, _SWEEP_BLOCK):
        tile = slice(start, start + _SWEEP_BLOCK)
        lt = lam[tile]
        np.multiply(np.arange(start, start + lt.size), step, out=lt)
        lt += lam_lo
        if tile.stop >= n_samples:
            lt[-1] = lam_hi
        theta, arg_tile = _sweep(crystal, r, geom, f_mag, lt, out=arg[tile])
        tt = np.multiply(theta, 2.0, out=two_theta[tile])
        tt *= 180.0 / math.pi  # np.degrees
        # (I0 lambda^2) |F|^2, then J0^2, in place.
        j = bessel_j0(arg_tile)
        j *= j
        i0 = spectrum.intensity(lt)
        i0 *= lt * lt
        i0 *= f_mag**2
        np.multiply(i0, j, out=raw[tile])
    peak = raw.max()
    if peak > 0:
        raw /= peak
    return FringeProfile(lam=lam, two_theta_deg=two_theta, argument=arg, intensity=raw)


def fringe_count(crystal: CrystalSpec, model: ScatteringModel, r: Reflection,
                 geom: BladeGeometry, window: SpectrumWindow) -> FringeCount:
    """Count fringes across the reflection's usable wavelength window."""
    require_observable(r)
    (lam_lo, lam_hi), _ = reflection_window(crystal, r, window)
    a_lo, a_hi = pendellosung_argument(crystal, model, r, geom, np.array([lam_lo, lam_hi]))
    # lambda/cos(theta) is increasing in lambda, so the sweep is monotone
    # unless a constant is NaN.
    if not a_hi > a_lo:
        raise PendellosungError(f"({r.label()}): argument sweep not increasing")
    delta = float(a_hi - a_lo)
    return FringeCount(
        delta_argument=delta,
        period_count=round(delta / (2.0 * math.pi)),
        antinode_count=round(delta / math.pi),
    )
