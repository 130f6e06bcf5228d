"""Physical constants, unit conversions and the b_ne -> <r_n^2> conversion.

Lengths are handled internally in angstrom, scattering lengths in fm; the
single fm -> angstrom conversion factor lives here so the mixed-unit
intensity argument is assembled in exactly one way everywhere.

The constants are the CODATA 2018 values in CODATA; they are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _non_negative, _real

ANGSTROM_PER_FM = 1.0e-5
ANGSTROM_PER_CM = 1.0e8


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the charge-radius conversion, plus reference
    neutron-electron scattering lengths used for comparisons; the type of
    CODATA.

    alpha          fine-structure constant
    m_n_c2_mev     neutron rest energy, MeV
    hbar_c_mev_fm  hbar*c, MeV*fm
    b_ne_*         reference values of the neutron-electron scattering
                   length, fm (value, one-sigma error)
    """

    alpha: float = 7.2973525693e-3
    m_n_c2_mev: float = 939.56542052
    hbar_c_mev_fm: float = 197.3269804

    # Foldy term alone (anomalous-magnetic-moment expectation).
    b_ne_theory_fm: float = -1.467971e-3
    sigma_b_ne_theory_fm: float = 0.000004e-3
    # The two mutually inconsistent experimental groupings.
    b_ne_argonne_fm: float = -1.31e-3
    sigma_b_ne_argonne_fm: float = 0.03e-3
    b_ne_dubna_fm: float = -1.59e-3
    sigma_b_ne_dubna_fm: float = 0.04e-3


CODATA = PhysicalConstants()

# alpha * m_n c^2 / (3 hbar c), about 0.011582 fm^-1: <r_n^2> = b_ne / RADIUS_FACTOR_PER_FM.
RADIUS_FACTOR_PER_FM = CODATA.alpha * CODATA.m_n_c2_mev / (3.0 * CODATA.hbar_c_mev_fm)


def charge_radius_from_bne(b_ne: float, sigma_b_ne: float = 0.0):
    """Mean-square charge radius <r_n^2> = 3 hbar c b_ne / (alpha m_n c^2).

    Input in fm, output in fm^2; exactly linear, sigma scales alike.
    ValueError for an input whose quotient is past the float range.
    """
    message = "b_ne must be finite, sigma_b_ne non-negative and finite"
    b_ne = _real(b_ne, math.isfinite, message)
    sigma_b_ne = _real(sigma_b_ne, _non_negative, message)
    for name, value in (("<r_n^2>", b_ne), ("sigma(<r_n^2>)", sigma_b_ne)):
        if math.isinf(value / RADIUS_FACTOR_PER_FM):
            raise ValueError(f"{name} = {value:.6g} fm / {RADIUS_FACTOR_PER_FM:.6g} fm^-1 "
                             "is past the float range")
    return b_ne / RADIUS_FACTOR_PER_FM, sigma_b_ne / RADIUS_FACTOR_PER_FM
