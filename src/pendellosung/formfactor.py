"""Normalized atomic form factors f(Q) with monotone interpolation.

Tables are sampled on Q/4pi (inverse angstrom) with f(0)=1 as the first
sample. Interpolation runs on (q^2, ln f) with a monotone piecewise-cubic
(PCHIP) scheme, which reproduces every sample exactly and cannot overshoot
between samples. A precise f between samples is not physically critical
here, but monotonicity is.

Built-in tables cover silicon and germanium at the momentum transfers of
the thermal-survey reflections; further elements can be loaded from CSV
(header ``q_over_4pi_A_inv,f``, first row ``0,1``, strictly increasing q).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import FormFactorRangeError

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


@dataclass(frozen=True)
class FormFactorTable:
    """Immutable f(Q) table for one element."""

    element: str
    samples: tuple  # ((q_over_4pi, f), ...) sorted, deduplicated
    _interp: PchipInterpolator = field(init=False, repr=False, compare=False)
    # (x, ln f, d ln f/dx) at x = q_max^2, the anchor of the extrapolation
    _tail: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = _dedupe_by_q(sorted(self.samples))
        if len(samples) < 2:
            raise ValueError("need at least two samples (including q=0)")
        q = np.array([s[0] for s in samples])
        f = np.array([s[1] for s in samples])
        if q[0] != 0.0 or f[0] != 1.0:
            raise ValueError("first sample must be (0, 1)")
        if np.any(np.diff(q) <= 0):
            raise ValueError("q samples must be strictly increasing")
        if np.any(np.diff(f) >= 0):
            raise ValueError("f samples must be strictly decreasing")
        if np.any(f <= 0) or np.any(f > 1):
            raise ValueError("f must lie in (0, 1]")
        object.__setattr__(self, "samples", tuple(samples))
        interp = PchipInterpolator(q * q, np.log(f), extrapolate=False)
        object.__setattr__(self, "_interp", interp)
        x_last = samples[-1][0] ** 2
        object.__setattr__(self, "_tail", (x_last, float(interp(x_last)),
                                           float(interp.derivative()(x_last))))

    @property
    def q_max(self) -> float:
        return self.samples[-1][0]

    def f_at(self, q_over_4pi: float) -> float:
        """Interpolated f at the given Q/4pi (1/angstrom).

        Exact at sample points, monotone non-increasing in between; up to
        EXTRAPOLATION_MARGIN past the last sample the last-segment slope is
        extended linearly in (q^2, ln f); beyond that the value is
        undefined and a FormFactorRangeError is raised.
        """
        q = float(q_over_4pi)
        if q < 0.0:
            raise FormFactorRangeError(f"negative momentum transfer q={q}")
        if q <= self.q_max:
            return float(math.exp(self._interp(q * q)))
        if q <= self.q_max * (1.0 + EXTRAPOLATION_MARGIN):
            x_last, y_last, slope = self._tail
            return float(math.exp(y_last + slope * (q * q - x_last)))
        raise FormFactorRangeError(
            f"{self.element}: q={q:.6g} beyond tabulated domain "
            f"(max {self.q_max:.6g} + {EXTRAPOLATION_MARGIN:.0%} margin)"
        )


def table_from_csv(path, element: str = "") -> FormFactorTable:
    """Load a one-element table from CSV with header q_over_4pi_A_inv,f."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["q_over_4pi_A_inv", "f"]:
            raise ValueError(f"{path}: expected header 'q_over_4pi_A_inv,f'")
        samples = [(float(row[0]), float(row[1])) for row in reader if row]
    return FormFactorTable(element=element or "custom", samples=tuple(samples))


def table_to_csv(table: FormFactorTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q_over_4pi_A_inv", "f"])
        for q, f in table.samples:
            writer.writerow([f"{q:.6g}", f"{f:.6g}"])


def _survey_q(n_sq: int, a0: float) -> float:
    """Q/4pi of a cubic reflection with h^2+k^2+l^2 = n_sq."""
    return math.sqrt(n_sq) / (2.0 * a0)


_A0_SI = 5.43072  # angstrom
_A0_GE = 5.6575

# Thermal-survey sample points: (h^2+k^2+l^2, f). The two N=51 reflections
# share one q and one f, hence the single entry.
SILICON_TABLE = FormFactorTable(
    element="Si",
    samples=tuple(
        [(0.0, 1.0)]
        + [
            (_survey_q(n, _A0_SI), f)
            for n, f in [
                (3, 0.7526),
                (24, 0.4788),
                (27, 0.4600),
                (35, 0.4150),
                (40, 0.3902),
                (43, 0.3764),
                (51, 0.3432),
                (56, 0.3249),
            ]
        ]
    ),
)

GERMANIUM_TABLE = FormFactorTable(
    element="Ge",
    samples=((0.0, 1.0), (_survey_q(3, _A0_GE), 0.8542)),
)

BUILTIN_TABLES = {"Si": SILICON_TABLE, "Ge": GERMANIUM_TABLE}
