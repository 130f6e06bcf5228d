"""Independent references used only by the tests.

Each stays because it computes its result another way than the package,
so it checks the package's answer, not only that a rewrite left the bits
alone; tests/bits.py alone pins a rewrite's bits, against a record of the
parent tree.

The J0 oracle deliberately shares no code or coefficients with the
package: below x = 30 it sums the ascending power series in decimal
arithmetic with enough guard digits to absorb the cancellation; above it
uses the Hankel asymptotic expansion truncated at its smallest term,
whose remainder is far below double precision there.

``candidates_per_triple`` and ``contamination_per_order`` are the planner's
survey as it stood when it built and classified a ``Reflection`` for every
(h, k, l) triple and every harmonic order it looked at. They reach each
result by another walk than the integer one that replaced them, so they
check it result for result, on the package's own window helpers.

``normal_cov_with_cond`` is the fits' normal-equation inverse as it stood
when its condition guard called ``np.linalg.cond``. It states
``_normal_cov``'s documented refusal rule (a 2-norm condition number above
1e14) through numpy's own condition number, so it checks the guard that
computes the singular values itself verdict for verdict, which no bits case
does.

``line_exact`` is the weighted straight line of the fits and the error budget
in exact rational arithmetic on the float rows, by
the textbook normal equations, with no centring: the reference against which
the package's rounding is bounded.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

from pendellosung.errors import DegenerateDesign
from pendellosung.lattice import Reflection, classify, q_over_4pi
from pendellosung.planner import PEAK_SLACK_DEG, Contaminant, _two_theta, _window, bragg_angle

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
