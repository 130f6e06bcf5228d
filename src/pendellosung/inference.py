"""Extraction of the temperature factor B and the neutron-electron
scattering length b_ne from measured Bragg amplitudes.

Two linearized weighted-least-squares routes are provided, matching how
such data are actually reduced:

* ln b_meas = ln b_nuclear - B (Q/4pi)^2     -> B from the slope
* b(Q) = b_nuclear - b_ne Z [1 - f(Q)]       -> b_ne from the slope

plus a joint two-parameter fit with Gauss-Newton refinement on the exact
model, analytic covariances from the normal equations, projected error
budgets for planned reflection sets, and Monte-Carlo validation of the
analytic covariance. All of them reduce the same weighted rows: log rows
(x = q^2, y = ln b, sy = sigma/b) and Debye-Waller corrected rows
(x = 1 - f), each optionally led by the forward datum at x = 0.

Error conventions: one standard deviation, Gaussian, uncorrelated inputs.
Removing the Debye-Waller attenuation inflates the error linearly,

    sigma_b(Q) = sigma_b_meas / DW + b(Q) (Q/4pi)^2 sigma_B,

i.e. the temperature-factor contribution is added to the scaled
measurement error rather than in quadrature; this reproduces the standard
error budget for the corrected (111) amplitudes (see README notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DegenerateDesign, InsufficientData
from .formfactor import FormFactorTable
from .lattice import (
    CrystalSpec,
    Reflection,
    ScatteringModel,
    b_meas,
    debye_waller,
    q_over_4pi,
    require_observable,
)

DEFAULT_SIGMA_B_MEAS = 0.0008  # fm, per-reflection amplitude precision


@dataclass(frozen=True)
class Measurement:
    """One measured Bragg amplitude b_meas (fm) with its one-sigma error."""

    reflection: Reflection
    b_meas: float
    sigma: float = DEFAULT_SIGMA_B_MEAS

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0 < self.b_meas < math.inf:
            raise ValueError("b_meas must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with covariance.

    Parameter order is fixed: ("B", "b_ne") for the two-parameter fit,
    with "ln_b_nuclear" appended when the intercept is free.
    """

    param_names: tuple
    values: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int

    def value(self, name: str) -> float:
        return float(self.values[self.param_names.index(name)])

    def sigma(self, name: str) -> float:
        i = self.param_names.index(name)
        return float(math.sqrt(self.covariance[i, i]))


# --- elementary propagation helpers ------------------------------------


def debye_waller_correct(b_meas_value: float, sigma_b_meas: float,
                         B: float, sigma_B: float, q_over_4pi: float):
    """Remove the thermal attenuation: returns (b(Q), sigma_b(Q)).

    Values round-trip exactly against the forward attenuation; the error
    combines the scaled measurement error and the temperature-factor term
    linearly (module docstring).
    """
    dw = debye_waller(B, q_over_4pi)
    b_q = b_meas_value / dw
    sigma = sigma_b_meas / dw + b_q * q_over_4pi**2 * sigma_B
    return b_q, sigma


def extract_bne_single(b_q: float, sigma_b_q: float,
                       b_nuclear: float, sigma_b_nuclear: float,
                       z: int, f: float):
    """b_ne from a single corrected amplitude and the forward value.

    b_ne = (b_nuclear - b(Q)) / (Z (1 - f)); the two input errors combine
    in quadrature and scale by the same geometric factor.
    """
    if f >= 1.0:
        raise DegenerateDesign("f(Q) = 1 carries no b_ne signal")
    denom = z * (1.0 - f)
    bne = (b_nuclear - b_q) / denom
    sigma = math.hypot(sigma_b_q, sigma_b_nuclear) / denom
    return bne, sigma


def charge_radius_from_bne(constants: PhysicalConstants, b_ne: float,
                           sigma_b_ne: float = 0.0):
    """Mean-square charge radius <r_n^2> = 3 hbar c b_ne / (alpha m_n c^2).

    Input in fm, output in fm^2; exactly linear, sigma scales alike.
    """
    factor = constants.radius_factor_per_fm()
    return b_ne / factor, sigma_b_ne / factor


# --- shared reduction core ------------------------------------------------


def _forward(crystal: CrystalSpec, include_forward: bool):
    """The forward datum (b_nuclear, sigma_b_nuclear) at x = 0, or None.

    Every weighted reduction takes the datum from here; a zero sigma would
    give it infinite weight, so it is refused.
    """
    if not include_forward:
        return None
    if crystal.sigma_b_nuclear == 0:
        raise DegenerateDesign(f"{crystal.name}: sigma_b_nuclear = 0 gives the forward "
                               "datum infinite weight; set it or exclude the datum")
    return crystal.b_nuclear, crystal.sigma_b_nuclear


def _prepend(head, cols):
    """Put the forward datum (x = 0), one value per column, in front."""
    return tuple(np.concatenate([[h], c]) for h, c in zip(head, cols))


def _log_rows(q, b, sigma, forward=None, *extra):
    """Rows of ln b = ln b_nuclear - B q^2: (x = q^2, y = ln b, sy = sigma/b).

    forward = (b_nuclear, sigma_b_nuclear) leads with the x = 0 datum;
    extra abscissa columns are passed through and are 0 at that datum.
    """
    rows = (q * q, np.log(b), sigma / b, *extra)
    if forward is None:
        return rows
    b0, s0 = forward
    return _prepend((0.0, math.log(b0), s0 / b0) + (0.0,) * len(extra), rows)


def _corrected_rows(q, f, b, sigma, B, sigma_B, forward=None):
    """Rows of b(Q) = b_nuclear - b_ne Z (1 - f): (x = 1 - f, y = b(Q), sy).

    b(Q) and sy come from debye_waller_correct; forward = (b_nuclear,
    sigma_b_nuclear) leads with the x = 0 datum.
    """
    corrected = np.array([debye_waller_correct(bi, si, B, sigma_B, qi)
                          for bi, si, qi in zip(b, np.broadcast_to(sigma, q.shape), q)])
    rows = (1.0 - f, corrected[:, 0], corrected[:, 1])
    return rows if forward is None else _prepend((0.0, *forward), rows)


def _measured_rows(ms, crystal: CrystalSpec, table: FormFactorTable | None = None):
    """Per-measurement (q, f or None without a table, b_meas, sigma) arrays."""
    q = np.array([q_over_4pi(crystal, m.reflection) for m in ms])
    f = None if table is None else np.array([table.f_at(qi) for qi in q])
    return q, f, np.array([m.b_meas for m in ms]), np.array([m.sigma for m in ms])


def _predicted_rows(model: ScatteringModel, crystal: CrystalSpec, reflections):
    """Per-reflection (q, f, model b_meas) arrays for a planned set."""
    q = np.array([q_over_4pi(crystal, r) for r in reflections])
    f = np.array([model.form_factor.f_at(qi) for qi in q])
    return q, f, np.array([b_meas(model, qi) for qi in q])


def _wls_line(x, y, sigma, fixed_intercept=None):
    """Weighted straight-line fit; returns (intercept, slope, cov2x2).

    With fixed_intercept given, only the slope is estimated and the
    intercept row/column of the covariance is zero.
    """
    w = 1.0 / sigma**2
    if fixed_intercept is not None:
        sxx = (w * x * x).sum()
        if sxx <= 0:
            raise DegenerateDesign("abscissas do not constrain a slope")
        slope = (w * x * (y - fixed_intercept)).sum() / sxx
        return fixed_intercept, slope, np.diag([0.0, 1.0 / sxx])
    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    denom = s * sxx - sx * sx
    if denom <= 0 or not np.isfinite(denom):
        raise DegenerateDesign("abscissas do not constrain a slope")
    slope = (s * sxy - sx * sy) / denom
    intercept = (sxx * sy - sx * sxy) / denom
    cov = np.array([[sxx, -sx], [-sx, s]]) / denom
    return intercept, slope, cov


def _joint_design(x1, x2, scale, free_intercept: bool):
    """Columns of ln b = c - B x1 - b_ne scale x2 in (B, b_ne[, c]) order."""
    cols = [-x1, -scale * x2]
    if free_intercept:
        cols.append(np.ones_like(x1))
    return np.column_stack(cols)


def _normal_cov(a, w):
    """(A^T W A)^-1 of a weighted linear fit with design a and weights w."""
    awa = a.T @ (w[:, None] * a)
    try:
        cov = np.linalg.inv(awa)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesign("collinear fit abscissas") from exc
    if not np.all(np.isfinite(cov)) or np.linalg.cond(awa) > 1e14:
        raise DegenerateDesign("collinear fit abscissas")
    return cov


def slope_uncertainty(xs, sigmas) -> float:
    """One-sigma slope error of a free-intercept weighted line fit.

    Standard textbook sums: with S = sum 1/s^2, Sx = sum x/s^2,
    Sxx = sum x^2/s^2, the slope variance is S / (S Sxx - Sx^2). Only the
    abscissas and the point errors enter.
    """
    xs = np.asarray(xs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if xs.size < 2:
        raise InsufficientData("need at least two points for a slope")
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be positive")
    return math.sqrt(_wls_line(xs, np.zeros_like(xs), sigmas)[2][1, 1])


# --- single-parameter fits ----------------------------------------------


def fit_temperature_factor(ms, crystal: CrystalSpec, *,
                           include_forward: bool = True,
                           free_intercept: bool = True):
    """Temperature factor from the log-linear relation; returns (B, sigma_B).

    Ordinate ln b_meas, abscissa (Q/4pi)^2, weights (b_meas/sigma)^2; the
    forward value enters as the x = 0 datum (default) or pins the
    intercept when free_intercept=False.
    """
    if not ms:
        raise InsufficientData("no measurements")
    q, _, b, s = _measured_rows(ms, crystal)
    x, y, sy = _log_rows(q, b, s, _forward(crystal, include_forward and free_intercept))
    if free_intercept and np.ptp(x) == 0:
        raise InsufficientData("need two distinct Q values (or a fixed intercept)")
    _, slope, cov = _wls_line(x, y, sy,
                              None if free_intercept else math.log(crystal.b_nuclear))
    return -slope, math.sqrt(cov[1, 1])


def fit_bne(ms, crystal: CrystalSpec, table: FormFactorTable, *,
            include_forward: bool = True):
    """b_ne from the slope of b(Q) against 1 - f(Q); returns (b_ne, sigma).

    Each amplitude is Debye-Waller corrected first (sigma_B propagated per
    the module convention); the forward value supplies the x = 0 datum.
    """
    if not ms:
        raise InsufficientData("no measurements")
    q, f, b, s = _measured_rows(ms, crystal, table)
    x, y, sy = _corrected_rows(q, f, b, s, crystal.B, crystal.sigma_B,
                               _forward(crystal, include_forward))
    if np.ptp(x) == 0:
        raise InsufficientData("need two distinct form-factor abscissas")
    _, slope, cov = _wls_line(x, y, sy)
    return -slope / crystal.Z, math.sqrt(cov[1, 1]) / crystal.Z


# --- joint fit -----------------------------------------------------------


def joint_fit(ms, crystal: CrystalSpec, table: FormFactorTable, *,
              include_forward: bool = True, free_intercept: bool = True,
              refine: bool = True) -> FitResult:
    """Simultaneous (B, b_ne) fit on the linearized log model.

    ln b_meas = c - B q^2 - (b_ne Z / b_nuclear)(1 - f), with c = ln
    b_nuclear either free (third parameter, forward datum recommended) or
    fixed. The linear solution is refined by Gauss-Newton steps on the
    exact model b_meas = (b_nuclear - b_ne Z (1-f)) exp(-B q^2) until the
    step stalls (at most four; noiseless data recover parameters to
    ~1e-12 relative). Covariance comes from the final normal equations.
    """
    if len(ms) < 2:
        raise InsufficientData("joint fit needs at least two reflections")
    q, f, b, s = _measured_rows(ms, crystal, table)
    if np.ptp(q) == 0 and np.ptp(f) == 0:
        raise DegenerateDesign("all measurements share one (q^2, 1-f) point")
    x1, y, sy, x2 = _log_rows(q, b, s, _forward(crystal, include_forward), 1.0 - f)

    names = ("B", "b_ne") + (("ln_b_nuclear",) if free_intercept else ())
    design = _joint_design(x1, x2, crystal.Z / crystal.b_nuclear, free_intercept)
    w = 1.0 / sy**2
    offset = 0.0 if free_intercept else math.log(crystal.b_nuclear)

    def solve_normal(a, resid):
        cov = _normal_cov(a, w)
        return cov @ (a.T @ (w * resid)), cov

    theta, cov = solve_normal(design, y - offset)

    def exact_model(t):
        c = t[2] if free_intercept else offset
        bq = math.exp(c) - t[1] * crystal.Z * x2
        if np.any(bq <= 0):
            return None, None
        return np.log(bq) - t[0] * x1, bq

    model = design @ theta + offset
    if refine:
        for _ in range(4):
            model_exact, bq = exact_model(theta)
            if model_exact is None:
                break
            model = model_exact
            jac_cols = [-x1, -crystal.Z * x2 / bq]
            if free_intercept:
                jac_cols.append(math.exp(theta[2]) / bq)
            jac = np.column_stack(jac_cols)
            step, cov = solve_normal(jac, y - model)
            theta = theta + step
            if np.max(np.abs(step)) < 1e-13:
                break
        model_exact, _ = exact_model(theta)
        if model_exact is not None:
            model = model_exact

    chi2 = float((w * (y - model) ** 2).sum())
    return FitResult(param_names=names, values=np.asarray(theta, dtype=float),
                     covariance=cov, chi2=chi2, dof=int(len(y) - len(theta)))


# --- projected error budgets ---------------------------------------------


@dataclass(frozen=True)
class BudgetResult:
    """Projected slope precisions for a planned reflection set."""

    sigma_B: float
    sigma_bne: float
    n_reflections: int
    include_forward: bool
    propagate_sigma_B: bool


def error_budget(model: ScatteringModel, crystal: CrystalSpec,
                 reflections, sigma_b_meas: float = DEFAULT_SIGMA_B_MEAS,
                 include_forward: bool = True,
                 propagate_sigma_B: bool = True) -> BudgetResult:
    """Projected (sigma_B, sigma_bne) for measuring the given reflections.

    Two-stage reduction mirroring the fits: the temperature-factor slope
    error comes first (free-intercept line through the forward datum);
    its projection then inflates the corrected-amplitude errors entering
    the b_ne slope (disable with propagate_sigma_B=False). An extinct
    reflection in the set raises ForbiddenReflection.
    """
    refls = list(reflections)
    for r in refls:
        require_observable(r)
    if (len(refls) + (1 if include_forward else 0)) < 2:
        raise DegenerateDesign("need two abscissas (reflections plus forward point)")
    q, f, b_pred = _predicted_rows(model, crystal, refls)
    forward = _forward(crystal, include_forward)
    x, _, sy = _log_rows(q, b_pred, sigma_b_meas, forward)
    sigma_big_b = slope_uncertainty(x, sy)
    x, _, sy = _corrected_rows(q, f, b_pred, sigma_b_meas, model.B,
                               sigma_big_b if propagate_sigma_B else 0.0, forward)
    sigma_bne = slope_uncertainty(x, sy) / crystal.Z

    return BudgetResult(sigma_B=sigma_big_b, sigma_bne=sigma_bne,
                        n_reflections=len(refls), include_forward=include_forward,
                        propagate_sigma_B=propagate_sigma_B)


# --- synthetic data and Monte Carlo --------------------------------------


def synth_measurements(model: ScatteringModel, crystal: CrystalSpec,
                       reflections, sigma=DEFAULT_SIGMA_B_MEAS,
                       seed: int = 0):
    """Noisy synthetic amplitudes; bit-reproducible for a fixed seed.

    sigma may be a scalar or a per-reflection sequence; 0 yields exact
    model values (each Measurement still needs a positive quoted sigma,
    so the quoted error floor is kept at DEFAULT_SIGMA_B_MEAS).
    """
    refls = [r.canonical() for r in reflections]
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (len(refls),))
    if np.any(sig < 0):
        raise ValueError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(refls))
    out = []
    for r, s, n in zip(refls, sig, noise):
        value = b_meas(model, q_over_4pi(crystal, r)) + s * n
        out.append(Measurement(reflection=r, b_meas=value,
                               sigma=float(s) if s > 0 else DEFAULT_SIGMA_B_MEAS))
    return out


def temperature_factor_sigmas(model: ScatteringModel, crystal: CrystalSpec,
                              reflections):
    """Corrected-amplitude errors from the temperature factor alone.

    The ideal-experiment scenario: infinitely precise b_meas, so the only
    error on b(Q) is b(Q) (Q/4pi)^2 crystal.sigma_B, growing with Q^2.
    """
    out = []
    for r in reflections:
        q = q_over_4pi(crystal, r.canonical())
        b_q = b_meas(model, q) / debye_waller(model.B, q)
        out.append(b_q * q * q * crystal.sigma_B)
    return np.array(out)


# Monte-Carlo trials drawn per noise block: about 5 MB of noise for the
# default nine observations, whatever the trial count.
_MC_CHUNK = 1 << 16


def _normal_chunks(seed: int, n_rows: int, n_cols: int):
    """The first n_rows x n_cols standard normals of the seed's Philox
    stream, in order, as successive views of one reused buffer of at most
    _MC_CHUNK rows; concatenated, they equal a single n_rows-row draw."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    buf = np.empty((min(_MC_CHUNK, n_rows), n_cols))
    for start in range(0, n_rows, _MC_CHUNK):
        chunk = buf[:min(_MC_CHUNK, n_rows - start)]
        rng.standard_normal(out=chunk)
        yield chunk


@dataclass(frozen=True)
class MonteCarloResult:
    param_names: tuple
    analytic_cov: np.ndarray
    empirical_cov: np.ndarray
    n_trials: int

    @property
    def sigma_ratios(self) -> np.ndarray:
        """Empirical / analytic one-sigma widths, per parameter.

        Raises DegenerateDesign when an analytic variance is zero (the
        sigma = 0 result), which leaves the ratio undefined.
        """
        analytic = np.diag(self.analytic_cov)
        if np.any(analytic == 0):
            raise DegenerateDesign("zero analytic variance: sigma ratios are undefined")
        return np.sqrt(np.diag(self.empirical_cov) / analytic)


def monte_carlo_validate(model: ScatteringModel, crystal: CrystalSpec,
                         reflections, sigma: float = DEFAULT_SIGMA_B_MEAS,
                         n_trials: int = 10_000, seed: int = 0,
                         include_forward: bool = True) -> MonteCarloResult:
    """Empirical covariance of the linearized joint fit over noisy trials.

    The fit is linear in the observations, so all trials reduce to one
    estimator matrix applied to the noise; the noise comes from the
    counter-based Philox generator keyed by the seed, making the result
    independent of any batching or scheduling of trials. Trials are drawn
    in fixed chunks of that one stream, and only the parameter sums and
    cross products are kept, so memory does not grow with n_trials.
    """
    names = ("B", "b_ne", "ln_b_nuclear")
    if n_trials < 2:
        raise ValueError("need at least two trials")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        # Perfect measurements pin the parameters: both covariances vanish.
        zero = np.zeros((3, 3))
        return MonteCarloResult(param_names=names, analytic_cov=zero,
                                empirical_cov=zero, n_trials=n_trials)
    q, f, b_pred = _predicted_rows(model, crystal, reflections)
    x1, _, sy, x2 = _log_rows(q, b_pred, sigma, _forward(crystal, include_forward), 1.0 - f)
    design = _joint_design(x1, x2, crystal.Z / crystal.b_nuclear, free_intercept=True)
    w = 1.0 / sy**2
    analytic = _normal_cov(design, w)
    estimator = analytic @ design.T @ np.diag(w)

    scaled = (estimator * sy).T  # unit-normal noise -> parameter deviations
    total = np.zeros(len(names))
    cross = np.zeros((len(names), len(names)))
    for noise in _normal_chunks(seed, n_trials, len(sy)):
        params = noise @ scaled  # deviations from the noiseless solution
        total += params.sum(axis=0)
        cross += params.T @ params
    mean = total / n_trials
    empirical = (cross - n_trials * np.outer(mean, mean)) / (n_trials - 1)
    return MonteCarloResult(param_names=names, analytic_cov=analytic,
                            empirical_cov=empirical, n_trials=n_trials)
