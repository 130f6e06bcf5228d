"""Independent reference implementations used only by the tests.

The J0 oracle deliberately shares no code or coefficients with the
package: below x = 30 it sums the ascending power series in decimal
arithmetic with enough guard digits to absorb the cancellation; above it
uses the Hankel asymptotic expansion truncated at its smallest term,
whose remainder is far below double precision there.

``bessel_j0_out_of_place`` is different in kind: a frozen copy of the
package's J0 as it stood before its large-argument branch was made to
work in place, on the package's own coefficients. It pins that rewrite
bit for bit, not the accuracy of the approximation.

``candidates_per_triple`` and ``contamination_per_order`` are frozen
copies of the planner's survey as it stood when it built and classified
a ``Reflection`` for every (h, k, l) triple and every harmonic order it
looked at. They pin the integer walk that replaced them, result for
result, on the package's own window helpers.

``normal_cov_with_cond`` is a frozen copy of the fits' normal-equation
inverse as it stood when its condition guard called ``np.linalg.cond``.
It pins the guard that computes the singular values itself, verdict for
verdict and bit for bit.

``synth_amplitudes_per_reflection`` and ``temperature_factor_sigmas_per_reflection``
are frozen copies of the two per-reflection loops that synthetic amplitudes
and the temperature-factor error model ran before both went through the
fits' shared predicted rows and ``debye_waller_correct``.

``line_exact`` is the weighted straight line of the fits, the error budget
and ``slope_uncertainty`` in exact rational arithmetic on the float rows, by
the textbook normal equations, with no centring: the reference against which
the package's rounding is bounded.

``sweep_with_temporaries`` and ``profile_with_temporaries`` are frozen
copies of the fringe profile's per-tile steps as they stood when the angle
conversions went through ``np.degrees``/``np.radians`` and the J0 argument
and the intensity were built in temporaries; ``monte_carlo_with_temporaries``
is the Monte Carlo as it stood when every noise chunk gave a fresh
parameter block reduced by ``sum(axis=0)``. They pin the in-place rewrites
of those loops bit for bit.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

from pendellosung import inference
from pendellosung.constants import ANGSTROM_PER_CM, ANGSTROM_PER_FM
from pendellosung.fringes import (
    _DR1, _DR2, _PIO4, _PP, _PQ, _QP, _QQ, _RP, _RQ, _SQ2OPI, _SWEEP_BLOCK,
)
from pendellosung.errors import DegenerateDesign
from pendellosung.lattice import (
    Reflection, b_meas, classify, debye_waller, q_over_4pi, structure_factor_magnitude,
)
from pendellosung.planner import (
    PEAK_SLACK_DEG, Contaminant, _two_theta, _window, bragg_angle, reflection_window,
)

_SERIES_CUT = 30.0


def j0_series_decimal(x: float) -> float:
    """Ascending series sum_k (-1)^k (x/2)^(2k) / (k!)^2, exact arithmetic."""
    ax = abs(float(x))
    # Largest term ~ e^x/sqrt(2 pi x); add generous guard digits.
    getcontext().prec = 40 + int(0.5 * ax)
    z = Decimal(repr(ax)) ** 2 / 4
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    while True:
        k += 1
        term = -term * z / (k * k)
        total += term
        if abs(term) < Decimal(10) ** -(getcontext().prec - 5) * max(abs(total), Decimal(1)):
            break
        if k > 10_000:
            raise RuntimeError("series did not converge")
    return float(total)


def j0_asymptotic(x: float) -> float:
    """Hankel expansion sqrt(2/pi x)[P cos(x-pi/4) - Q sin(x-pi/4)].

    Coefficients a_m = (-1)^m ((2m-1)!!)^2 / (m! 8^m); both sums are
    truncated at their smallest term (remainder ~ e^(-2x)).
    """
    ax = abs(float(x))
    a = 1.0
    p_sum, q_sum = 0.0, 0.0
    sign = 1.0
    m = 0
    last = math.inf
    while True:
        term = a / ax**m
        if abs(term) >= last:
            break
        last = abs(term)
        if m % 2 == 0:
            p_sum += sign * term
        else:
            q_sum += sign * term
            sign = -sign
        m += 1
        a = a * (-((2 * m - 1) ** 2)) / (8.0 * m)
        if m > 200 or abs(term) < 1e-22:
            break
    chi = ax - math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * ax)) * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def j0_oracle(x: float) -> float:
    ax = abs(float(x))
    if ax <= _SERIES_CUT:
        return j0_series_decimal(ax)
    return j0_asymptotic(ax)


def j0_zero(k: int) -> float:
    """k-th positive zero of J0 (k >= 1), bisected on the oracle."""
    # McMahon first guess, then sign-change bracketing.
    beta = (k - 0.25) * math.pi
    guess = beta + 1.0 / (8.0 * beta)
    lo, hi = guess - 0.6, guess + 0.6
    flo = j0_oracle(lo)
    if flo * j0_oracle(hi) > 0:
        raise RuntimeError(f"zero {k} not bracketed")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if flo * j0_oracle(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = j0_oracle(lo)
    return 0.5 * (lo + hi)


def j0_zeros_between(a: float, b: float):
    """All positive zeros of J0 inside (a, b)."""
    out = []
    k = max(1, int(a / math.pi))
    while True:
        z = j0_zero(k)
        if z >= b:
            break
        if z > a:
            out.append(z)
        k += 1
    return out


def _polevl_out_of_place(x, coef):
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def bessel_j0_out_of_place(x):
    """The package's J0 with one new temporary per operation, as it was
    before the in-place rewrite."""
    scalar = np.isscalar(x)
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(ax)

    small = ax <= 5.0
    if np.any(small):
        z = ax[small] ** 2
        p = ((z - _DR1) * (z - _DR2) * _polevl_out_of_place(z, _RP)
             / _polevl_out_of_place(z, _RQ))
        tiny = ax[small] < 1e-5
        if np.any(tiny):
            p[tiny] = 1.0 - z[tiny] / 4.0
        out[small] = p
    large = ~small
    if np.any(large):
        xl = ax[large]
        w = 5.0 / xl
        z = w * w
        p = _polevl_out_of_place(z, _PP) / _polevl_out_of_place(z, _PQ)
        q = _polevl_out_of_place(z, _QP) / _polevl_out_of_place(z, _QQ)
        xn = xl - _PIO4
        out[large] = _SQ2OPI * (p * np.cos(xn) - w * q * np.sin(xn)) / np.sqrt(xl)
    return float(out) if scalar else out


def contamination_per_order(crystal, r, w):
    """The planner's contamination with a Reflection built and classified
    for every order it looks at."""
    prim, m0 = r.canonical().primitive()
    q = q_over_4pi(crystal, r)
    fund = _window(q, w) if q > 0.0 else None
    if fund is None:
        return []
    lam_lo, lam_hi = fund[0]
    q1 = q_over_4pi(crystal, prim)
    found = []
    for m in itertools.count(1):
        if m == m0:
            continue
        lo = max(lam_lo, (m / m0) * w.lambda_min)
        hi = min(lam_hi, (m / m0) * w.lambda_max)
        margin = m > m0 and not lo < hi
        other = prim.scaled(m)
        if (lo < hi or margin) and not classify(other).extinct:
            window = _window(m * q1, w)
            if window is not None:
                overlap = None if margin else (_two_theta(q, lo), _two_theta(q, hi))
                found.append(Contaminant(order=m, reflection=other,
                                         two_theta_window=window[1], overlap=overlap))
        if margin:
            return found


def candidates_per_triple(crystal, w):
    """The planner's candidates with a Reflection built and classified for
    every (h, k, l) triple it walks."""
    tt_floor, tt_cap = w.two_theta_min - PEAK_SLACK_DEG, w.two_theta_max + PEAK_SLACK_DEG
    q_cap = math.sin(math.radians(tt_cap / 2.0)) / w.lambda_peak
    n_sq_cap = int((2.0 * crystal.a0 * q_cap) ** 2)
    h_max = int(math.isqrt(n_sq_cap))
    out = []
    for h in range(1, h_max + 1):
        for k in range(0, h + 1):
            for l in range(0, k + 1):
                r = Reflection(h, k, l)
                if r.n_sq > n_sq_cap or classify(r).extinct:
                    continue
                q = q_over_4pi(crystal, r)
                if w.lambda_peak * q > 1.0 or _window(q, w) is None:
                    continue
                if tt_floor <= 2.0 * bragg_angle(crystal, r, w.lambda_peak) <= tt_cap:
                    out.append(r)
    out.sort(key=lambda r: (r.n_sq, r.h, r.k, r.l))
    return out


def normal_cov_with_cond(a, w):
    """The fits' (A^T W A)^-1 with its np.linalg.cond guard."""
    awa = a.T @ (w[:, None] * a)
    try:
        cov = np.linalg.inv(awa)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesign("collinear fit abscissas") from exc
    if not np.all(np.isfinite(cov)) or np.linalg.cond(awa) > 1e14:
        raise DegenerateDesign("collinear fit abscissas")
    return cov


def _sqrt_exact(v: Fraction) -> Fraction:
    """sqrt(v) of a positive Fraction to 2^-200 relative, from an integer square root."""
    k = 200 + max(0, (v.denominator.bit_length() - v.numerator.bit_length()) // 2 + 1)
    return Fraction(math.isqrt((v.numerator << 2 * k) // v.denominator), 1 << k)


def line_exact(x, sy, y=None, fixed_intercept=None):
    """(slope, sigma) as Fractions of the weighted line y = c + slope x, c free
    or fixed_intercept, on float rows (x, y, sy) taken as exact, weights
    1/sy^2; the slope is None without y. With S = sum w, Sx = sum w x and
    Sxx = sum w x^2, a free c gives the slope variance S / (S Sxx - Sx^2), a
    fixed one 1 / Sxx."""
    x, w = [Fraction(v) for v in x], [1 / Fraction(v) ** 2 for v in sy]
    sxx = sum(wi * xi * xi for wi, xi in zip(w, x))
    y = None if y is None else [Fraction(v) - Fraction(fixed_intercept or 0) for v in y]
    sxy = None if y is None else sum(wi * xi * yi for wi, xi, yi in zip(w, x, y))
    if fixed_intercept is not None:
        return sxy / sxx, _sqrt_exact(1 / sxx)
    s, sx = sum(w), sum(wi * xi for wi, xi in zip(w, x))
    det = s * sxx - sx * sx
    slope = None if y is None else (s * sxy - sx * sum(wi * yi for wi, yi in zip(w, y))) / det
    return slope, _sqrt_exact(s / det)


def synth_amplitudes_per_reflection(model, crystal, reflections, sigma, seed):
    """synth_measurements' noisy amplitudes, b_meas(crystal, model, q) + s n, one
    reflection at a time."""
    refls = [r.canonical() for r in reflections]
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (len(refls),))
    noise = np.random.default_rng(seed).standard_normal(len(refls))
    return [b_meas(crystal, model, q_over_4pi(crystal, r)) + s * n
            for r, s, n in zip(refls, sig, noise)]


def temperature_factor_sigmas_per_reflection(model, crystal, reflections):
    """b(Q) (Q/4pi)^2 sigma_B with b(Q) undone from b_meas, per reflection."""
    out = []
    for r in reflections:
        q = q_over_4pi(crystal, r.canonical())
        b_q = b_meas(crystal, model, q) / debye_waller(model.B, q)
        out.append(b_q * q * q * crystal.sigma_B)
    return np.array(out)


def sweep_with_temporaries(crystal, r, geom, f_mag, lam):
    """theta (radians) and the J0 argument at each wavelength of lam, one
    temporary per step (the range and overflow checks left out)."""
    s = lam * q_over_4pi(crystal, r)
    theta = np.radians(np.degrees(np.arcsin(s)))
    scale = geom.thickness_cm * ANGSTROM_PER_CM * f_mag * ANGSTROM_PER_FM
    den = crystal.a0**3 * np.cos(theta)
    return theta, scale * lam / den


def profile_with_temporaries(spectrum, crystal, model, r, geom, n_samples):
    """(lam, two_theta_deg, argument, intensity) of the fringe profile, tile
    by tile of _SWEEP_BLOCK samples, each step into a fresh array."""
    (lam_lo, lam_hi), _ = reflection_window(crystal, r, spectrum.window)
    lam, two_theta, arg, raw = np.empty((4, n_samples))
    step = (lam_hi - lam_lo) / (n_samples - 1)
    lam[:] = np.arange(n_samples) * step + lam_lo
    lam[-1] = lam_hi
    f_mag = structure_factor_magnitude(crystal, model, r)
    for a in range(0, n_samples, _SWEEP_BLOCK):
        tile = slice(a, a + _SWEEP_BLOCK)
        lt = lam[tile]
        theta, arg[tile] = sweep_with_temporaries(crystal, r, geom, f_mag, lt)
        two_theta[tile] = np.degrees(2.0 * theta)
        raw[tile] = (spectrum.intensity(lt) * lt**2 * f_mag**2
                     * bessel_j0_out_of_place(arg[tile]) ** 2)
    peak = raw.max()
    if peak > 0:
        raw /= peak
    return lam, two_theta, arg, raw


def monte_carlo_with_temporaries(model, crystal, reflections, sigma, n_trials, seed,
                                 include_forward):
    """(analytic, empirical) covariances of monte_carlo_validate, the noise
    of each 2**16-trial chunk in one Philox draw and a fresh parameter block
    per chunk."""
    q, f, b_pred = inference._predicted_rows(model, crystal, list(reflections))
    x1, _, sy, x2 = inference._log_rows(q, b_pred, sigma,
                                        inference._forward(crystal, include_forward),
                                        [1.0 - v for v in f])
    design = inference._joint_design(x1, x2, crystal.Z / crystal.b_nuclear,
                                     free_intercept=True)
    w = 1.0 / sy**2
    analytic = inference._normal_cov(design, w)
    scaled = ((analytic @ design.T) * w * sy).T
    total = np.zeros(3)
    cross = np.zeros((3, 3))
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, n_trials, 1 << 16):
        params = rng.standard_normal((min(1 << 16, n_trials - start), len(sy))) @ scaled
        total += params.sum(axis=0)
        cross += params.T @ params
    mean = total / n_trials
    return analytic, (cross - n_trials * np.outer(mean, mean)) / (n_trials - 1)
