"""Normalized atomic form factors f(Q) with monotone interpolation.

Tables are sampled on Q/4pi (inverse angstrom) with f(0)=1 as the first
sample. Interpolation runs on (q^2, ln f) with the monotone piecewise-cubic
Hermite (PCHIP) scheme of Fritsch and Carlson (SIAM J. Numer. Anal. 17, 238,
1980) and the three-point end rule (Moler, Numerical Computing with MATLAB,
2004, sec. 3.6), which reproduces every sample exactly and cannot overshoot
between samples. Coefficients and evaluation order are those of scipy's
PchipInterpolator, so values agree with it to the bit. A precise f between
samples is not physically critical here, but monotonicity is.

The built-in silicon and germanium tables live in ``lattice`` beside their
crystals; others load from CSV (header ``q_over_4pi_A_inv,f``, first row
``0,1``, strictly increasing q up to 1e50, finite values).
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormFactorRangeError, _real

# Fractional q margin past the last sample over which linear extrapolation
# (in the transformed coordinates) is still accepted.
EXTRAPOLATION_MARGIN = 0.05


def _dedupe_by_q(samples):
    """Collapse samples sharing a q value; their f values must agree."""
    out = []
    for q, f in samples:
        if out and math.isclose(q, out[-1][0], rel_tol=0.0, abs_tol=1e-12):
            if not math.isclose(f, out[-1][1], rel_tol=0.0, abs_tol=1e-12):
                raise ValueError(f"conflicting f values at q={q}: {out[-1][1]} vs {f}")
            continue
        out.append((q, f))
    return out


def _end_slope(h0, h1, m0, m1):
    """Three-point end rule, 0 where it turns against the end secant (its
    3 m0 clamp needs m0 and m1 of opposite sign, which tables never have)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if np.sign(d) == np.sign(m0) else 0.0


def _pchip(x, y):
    """Piecewise-cubic coefficients (4, n-1), highest power first, of the
    monotone Hermite interpolant through (x, y)."""
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])  # two samples: the straight line
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate([[_end_slope(h[0], h[1], m[0], m[1])], inner,
                            [_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


@dataclass(frozen=True)
class FormFactorTable:
    """Immutable f(Q) table for one element."""

    element: str
    samples: tuple  # ((q_over_4pi, f), ...) sorted, deduplicated
    # knots x = q^2 and, per interval, the cubic (c0, c1, c2, c3) in x - knot
    _knots: tuple = field(init=False, repr=False, compare=False)
    _coefs: tuple = field(init=False, repr=False, compare=False)
    # (x, ln f, d ln f/dx) at x = q_max^2, the anchor of the extrapolation
    _tail: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = _dedupe_by_q(sorted(
            tuple(_real(v, math.isfinite, "q and f samples must be finite") for v in sample)
            for sample in self.samples))
        if len(samples) < 2:
            raise ValueError("need at least two samples (including q=0)")
        if not samples[-1][0] <= 1e50:  # past ~1e51 the cubic in q^2 overflows to NaN
            raise ValueError("q samples must not exceed 1e50 1/A")
        q = np.array([s[0] for s in samples])
        f = np.array([s[1] for s in samples])
        if q[0] != 0.0 or f[0] != 1.0:
            raise ValueError("first sample must be (0, 1)")
        if np.any(np.diff(f) >= 0):
            raise ValueError("f samples must be strictly decreasing")
        if np.any(f <= 0) or np.any(f > 1):
            raise ValueError("f must lie in (0, 1]")
        object.__setattr__(self, "samples", tuple(samples))
        x = q * q
        object.__setattr__(self, "_knots", tuple(x.tolist()))
        object.__setattr__(self, "_coefs", tuple(map(tuple, _pchip(x, np.log(f)).T.tolist())))
        c0, c1, c2, _ = self._coefs[-1]
        h = self._knots[-1] - self._knots[-2]
        object.__setattr__(self, "_tail", (self._knots[-1], self._ln_f(self._knots[-1]),
                                           c2 + 2 * c1 * h + 3 * c0 * (h * h)))

    @property
    def q_max(self) -> float:
        return self.samples[-1][0]

    def _ln_f(self, x: float) -> float:
        """Interpolated ln f at x = q^2 in [0, q_max^2]."""
        i = min(bisect.bisect_right(self._knots, x), len(self._knots) - 1) - 1
        c0, c1, c2, c3 = self._coefs[i]
        s = x - self._knots[i]
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def f_at(self, q_over_4pi: float) -> float:
        """Interpolated f at the given Q/4pi (1/angstrom).

        Exact at sample points, monotone non-increasing in between; up to
        EXTRAPOLATION_MARGIN past the last sample the last-segment slope is
        extended linearly in (q^2, ln f); beyond that the value is
        undefined and a FormFactorRangeError is raised.
        """
        try:
            q = float(q_over_4pi)
        except OverflowError:  # an int past the float range lies past any table
            q = math.inf if q_over_4pi > 0 else -math.inf
        if q < 0.0:
            raise FormFactorRangeError(f"negative momentum transfer q={q}")
        if q <= self.q_max:
            return math.exp(self._ln_f(q * q))
        if q <= self.q_max * (1.0 + EXTRAPOLATION_MARGIN):
            x_last, y_last, slope = self._tail
            return math.exp(y_last + slope * (q * q - x_last))
        raise FormFactorRangeError(
            f"{self.element}: q={q:.6g} beyond tabulated domain "
            f"(max {self.q_max:.6g} + {EXTRAPOLATION_MARGIN:.0%} margin)"
        )


def table_from_csv(path, element: str = "") -> FormFactorTable:
    """Load a one-element table from CSV with header q_over_4pi_A_inv,f.
    ValueError, naming the file, for one that is not UTF-8 or that breaks
    the layout."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["q_over_4pi_A_inv", "f"]:
                raise ValueError(f"{path}: expected header 'q_over_4pi_A_inv,f'")
            samples = []
            for row in filter(None, reader):  # blank lines skipped, extra fields ignored
                if len(row) < 2:
                    raise ValueError(f"{path}: expected at least 2 fields, got {len(row)}")
                samples.append((float(row[0]), float(row[1])))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return FormFactorTable(element=element or "custom", samples=tuple(samples))
