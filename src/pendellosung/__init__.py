"""Neutron Pendellosung interferometry toolkit for diamond-structure
crystals: reflection planning, fringe simulation, and extraction of the
temperature factor and the neutron-electron scattering length."""

from .constants import CODATA, PhysicalConstants
from .errors import (
    ConfigError,
    DegenerateDesign,
    EmptyWindow,
    ForbiddenReflection,
    FormFactorRangeError,
    InsufficientData,
    NoReflection,
    PendellosungError,
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
    charge_radius_from_bne,
    debye_waller_correct,
    error_budget,
    extract_bne_single,
    fit_bne,
    fit_temperature_factor,
    joint_fit,
    monte_carlo_validate,
    slope_uncertainty,
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

__version__ = "0.1.0"
