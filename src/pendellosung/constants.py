"""Physical constants and unit conversions.

Lengths are handled internally in angstrom, scattering lengths in fm; the
single fm -> angstrom conversion factor lives here so the mixed-unit
intensity argument is assembled in exactly one way everywhere.

CODATA 2018 values; all of them can be overridden by constructing a custom
:class:`PhysicalConstants`.
"""

from __future__ import annotations

from dataclasses import dataclass

ANGSTROM_PER_FM = 1.0e-5
ANGSTROM_PER_CM = 1.0e8


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the charge-radius conversion, plus reference
    neutron-electron scattering lengths used for comparisons.

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

    def radius_factor_per_fm(self) -> float:
        """alpha * m_n c^2 / (3 hbar c), in fm^-1.

        <r_n^2> = b_ne / radius_factor; about 0.011582 fm^-1.
        """
        return self.alpha * self.m_n_c2_mev / (3.0 * self.hbar_c_mev_fm)


CODATA = PhysicalConstants()
