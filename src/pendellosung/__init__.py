"""Neutron Pendellosung interferometry toolkit for diamond-structure
crystals: reflection planning, fringe simulation, and extraction of the
temperature factor and the neutron-electron scattering length.

The public surface is __all__: every name bound below that is not a
module. Every other name is private."""

from types import ModuleType as _ModuleType

from .constants import CODATA, charge_radius_from_bne
from .errors import (
    ConfigError,
    DegenerateDesign,
    EmptyWindow,
    ForbiddenReflection,
    FormFactorRangeError,
    InsufficientData,
    NoReflection,
    PendellosungError,
    SurveyTooLarge,
)
from .formfactor import FormFactorTable
from .fringes import (
    BeamSpectrum,
    BladeGeometry,
    FringeCount,
    FringeProfile,
    bessel_j0,
    fringe_count,
    intensity_profile,
    pendellosung_argument,
)
from .inference import (
    BudgetResult,
    FitResult,
    Measurement,
    MonteCarloResult,
    debye_waller_correct,
    error_budget,
    extract_bne_single,
    fit_bne,
    fit_temperature_factor,
    joint_fit,
    monte_carlo_validate,
    synth_measurements,
)
from .lattice import (
    BUILTIN_CRYSTALS,
    BUILTIN_TABLES,
    GERMANIUM,
    GERMANIUM_TABLE,
    SILICON,
    SILICON_TABLE,
    CrystalSpec,
    Reflection,
    ReflectionClass,
    ScatteringModel,
    b_meas,
    b_of_q,
    classify,
    debye_waller,
    q_over_4pi,
    scattering_model,
    structure_factor_magnitude,
)
from .planner import (
    Contaminant,
    ReflectionPlan,
    SpectrumWindow,
    SurveyResult,
    bragg_angle,
    candidates,
    contamination,
    plan_reflection,
    reflection_window,
    survey,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
