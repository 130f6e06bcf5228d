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
(x = 1 - f), each optionally led by the forward datum at x = 0; model
amplitudes of a planned set come only from _predicted_rows.

Error conventions: one standard deviation, Gaussian, uncorrelated inputs.
Removing the Debye-Waller attenuation inflates the error linearly,

    sigma_b(Q) = sigma_b_meas / DW + b(Q) (Q/4pi)^2 sigma_B,

i.e. the temperature-factor term adds linearly, not in quadrature, which
reproduces the standard corrected (111) error budget (README notes).
debye_waller_correct alone writes it; the temperature-factor error model
is it with sigma_b_meas = 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DegenerateDesign, InsufficientData
from .formfactor import FormFactorTable
from .lattice import (
    CrystalSpec,
    Reflection,
    ScatteringModel,
    _b_of_f,
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
    with "ln_b_nuclear" appended when the intercept is free. n_iter counts
    the Gauss-Newton steps on the exact model; converged is False when
    the refinement stopped without a step below 1e-13, either after its
    four steps or because a trial parameter set gave a non-positive
    b(Q), and True for a fit without refinement.
    """

    param_names: tuple
    values: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int
    n_iter: int
    converged: bool

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
    if not (math.isfinite(b_ne) and 0 <= sigma_b_ne < math.inf):
        raise ValueError("b_ne must be finite, sigma_b_ne non-negative and finite")
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
    """Put the forward datum (x = 0), one value per column, in front; the
    columns come back as the rows of one block."""
    rows = np.empty((len(cols), len(cols[0]) + 1))
    rows[:, 0] = head
    rows[:, 1:] = cols
    return tuple(rows)


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
    corrected = [debye_waller_correct(bi, si, B, sigma_B, qi) for bi, si, qi
                 in zip(b.tolist(), np.broadcast_to(sigma, q.shape).tolist(), q.tolist())]
    rows = (1.0 - f, *np.array(corrected).reshape(-1, 2).T)
    return rows if forward is None else _prepend((0.0, *forward), rows)


def _require_reflections(reflections):
    """Refuse an extinct reflection (ForbiddenReflection) and (000), the
    forward beam, whose x = 0 datum only the crystal supplies."""
    for r in reflections:
        if r.n_sq == 0:
            raise DegenerateDesign("(000) is the forward beam, not a reflection")
        require_observable(r)


def _measured_rows(ms, crystal: CrystalSpec, table: FormFactorTable | None = None):
    """Per-measurement (q, f or None without a table, b_meas, sigma) arrays
    of a non-empty measurement list checked by _require_reflections."""
    if not ms:
        raise InsufficientData("no measurements")
    _require_reflections(m.reflection for m in ms)
    q = [q_over_4pi(crystal, m.reflection) for m in ms]
    f = None if table is None else np.array([table.f_at(qi) for qi in q])
    return np.array(q), f, np.array([m.b_meas for m in ms]), np.array([m.sigma for m in ms])


def _predicted_rows(model: ScatteringModel, crystal: CrystalSpec, reflections):
    """Per-reflection (q, f, model b_meas) arrays for a planned set checked
    by _require_reflections; b_meas is b_meas(crystal, model, q) on that f(Q)."""
    _require_reflections(reflections)
    q = [q_over_4pi(crystal, r) for r in reflections]
    f = [model.form_factor.f_at(qi) for qi in q]
    b = [_b_of_f(crystal, model, fi) * debye_waller(model.B, qi) for qi, fi in zip(q, f)]
    return tuple(np.array((q, f, b)))


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
    a = np.empty((len(x1), 3 if free_intercept else 2))
    np.negative(x1, out=a[:, 0])
    np.multiply(-scale, x2, out=a[:, 1])
    if free_intercept:
        a[:, 2] = 1.0
    return a


def _normal_cov(a, w):
    """(A^T W A)^-1 of a weighted linear fit with design a and weights w.

    A singular or non-finite inverse, or a 2-norm condition number
    s_max / s_min above 1e14 (np.linalg.cond's value), is refused.
    """
    awa = a.T @ (w[:, None] * a)
    try:
        cov = np.linalg.inv(awa)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesign("collinear fit abscissas") from exc
    if np.isfinite(cov).all():
        s = np.linalg.svd(awa, compute_uv=False)
        s_max, s_min = float(s[0]), float(s[-1])
        if s_min != 0.0 and s_max / s_min <= 1e14:
            return cov
    raise DegenerateDesign("collinear fit abscissas")


def slope_uncertainty(xs, sigmas) -> float:
    """One-sigma slope error of a free-intercept weighted line fit.

    Standard textbook sums: with S = sum 1/s^2, Sx = sum x/s^2,
    Sxx = sum x^2/s^2, the slope variance is S / (S Sxx - Sx^2). Only the
    abscissas and the point errors, one per abscissa, enter.
    """
    xs = np.asarray(xs, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.shape != xs.shape:
        raise ValueError(f"need one sigma per abscissa, got {sigmas.size} for {xs.size}")
    if xs.size < 2:
        raise InsufficientData("need at least two points for a slope")
    if not np.isfinite(xs).all():
        raise ValueError("abscissas must be finite")
    if not ((sigmas > 0) & (sigmas < math.inf)).all():
        raise ValueError("sigmas must be positive and finite")
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
    q, _, b, s = _measured_rows(ms, crystal)
    x, y, sy = _log_rows(q, b, s, _forward(crystal, include_forward and free_intercept))
    if free_intercept and x.max() == x.min():
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
    q, f, b, s = _measured_rows(ms, crystal, table)
    x, y, sy = _corrected_rows(q, f, b, s, crystal.B, crystal.sigma_B,
                               _forward(crystal, include_forward))
    if x.max() == x.min():
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
    if q.max() == q.min() and f.max() == f.min():
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
        if (bq <= 0).any():
            return None, None
        return np.log(bq) - t[0] * x1, bq

    model = design @ theta + offset
    # Gauss-Newton steps taken, and whether the last one stalled below 1e-13
    # (refine=False keeps the linear solution, which needs no steps).
    n_iter, converged = 0, not refine
    if refine:
        # The Jacobian's columns, rewritten in place each step; the first
        # and the b_ne numerator do not change.
        jac = np.empty_like(design)
        np.negative(x1, out=jac[:, 0])
        z_x2 = -crystal.Z * x2
        for _ in range(4):
            model_exact, bq = exact_model(theta)
            if model_exact is None:
                break
            model = model_exact
            np.divide(z_x2, bq, out=jac[:, 1])
            if free_intercept:
                np.divide(math.exp(theta[2]), bq, out=jac[:, 2])
            step, cov = solve_normal(jac, y - model)
            theta = theta + step
            n_iter += 1
            if np.abs(step).max() < 1e-13:
                converged = True
                break
        model_exact, _ = exact_model(theta)
        if model_exact is not None:
            model = model_exact
        else:
            converged = False

    chi2 = float((w * (y - model) ** 2).sum())
    return FitResult(param_names=names, values=np.asarray(theta, dtype=float),
                     covariance=cov, chi2=chi2, dof=int(len(y) - len(theta)),
                     n_iter=n_iter, converged=converged)


# --- projected error budgets ---------------------------------------------


@dataclass(frozen=True)
class BudgetResult:
    """Projected slope precisions for a planned reflection set."""

    sigma_B: float
    sigma_bne: float
    n_reflections: int


def error_budget(model: ScatteringModel, crystal: CrystalSpec,
                 reflections, sigma_b_meas: float = DEFAULT_SIGMA_B_MEAS,
                 include_forward: bool = True,
                 propagate_sigma_B: bool = True) -> BudgetResult:
    """Projected (sigma_B, sigma_bne) for measuring the given reflections.

    Two-stage reduction mirroring the fits: the temperature-factor slope
    error comes first (free-intercept line through the forward datum);
    its projection then inflates the corrected-amplitude errors entering
    the b_ne slope (disable with propagate_sigma_B=False). An extinct
    reflection in the set raises ForbiddenReflection, (000) DegenerateDesign.
    """
    refls = list(reflections)
    q, f, b_pred = _predicted_rows(model, crystal, refls)
    if not 0 < sigma_b_meas < math.inf:
        raise ValueError("sigma_b_meas must be positive and finite")
    if (len(refls) + (1 if include_forward else 0)) < 2:
        raise DegenerateDesign("need two abscissas (reflections plus forward point)")
    forward = _forward(crystal, include_forward)
    x, _, sy = _log_rows(q, b_pred, sigma_b_meas, forward)
    sigma_big_b = slope_uncertainty(x, sy)
    x, _, sy = _corrected_rows(q, f, b_pred, sigma_b_meas, model.B,
                               sigma_big_b if propagate_sigma_B else 0.0, forward)
    sigma_bne = slope_uncertainty(x, sy) / crystal.Z

    return BudgetResult(sigma_B=sigma_big_b, sigma_bne=sigma_bne, n_reflections=len(refls))


# --- synthetic data and Monte Carlo --------------------------------------


def _check_seed(seed) -> int:
    """seed as an int; ValueError unless it is a non-negative integer."""
    try:
        if operator.index(seed) >= 0:
            return operator.index(seed)
    except TypeError:
        pass
    raise ValueError("seed must be a non-negative integer")


def synth_measurements(model: ScatteringModel, crystal: CrystalSpec,
                       reflections, sigma=DEFAULT_SIGMA_B_MEAS,
                       seed: int = 0):
    """Noisy synthetic amplitudes; bit-reproducible for a fixed seed.

    sigma may be a scalar or a per-reflection sequence; 0 yields exact
    model values (each Measurement still needs a positive quoted sigma,
    so the quoted error floor is kept at DEFAULT_SIGMA_B_MEAS). An empty set
    raises InsufficientData, an extinct reflection ForbiddenReflection,
    (000) DegenerateDesign.
    """
    refls = [r.canonical() for r in reflections]
    if not refls:
        raise InsufficientData("no reflections left to synthesize")
    b_pred = _predicted_rows(model, crystal, refls)[2]
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (len(refls),))
    if not ((sig >= 0) & (sig < math.inf)).all():
        raise ValueError("sigma must be non-negative and finite")
    noise = np.random.default_rng(_check_seed(seed)).standard_normal(len(refls))
    return [Measurement(reflection=r, b_meas=v, sigma=s if s > 0 else DEFAULT_SIGMA_B_MEAS)
            for r, v, s in zip(refls, (b_pred + sig * noise).tolist(), sig.tolist())]


def temperature_factor_sigmas(model: ScatteringModel, crystal: CrystalSpec,
                              reflections):
    """Corrected-amplitude errors from the temperature factor alone.

    debye_waller_correct with sigma_b_meas = 0 (infinitely precise b_meas):
    b(Q) (Q/4pi)^2 crystal.sigma_B, growing with Q^2. An extinct
    reflection raises ForbiddenReflection, (000) DegenerateDesign.
    """
    q, f, b = _predicted_rows(model, crystal, list(reflections))
    return _corrected_rows(q, f, b, 0.0, model.B, crystal.sigma_B)[2]


# Monte-Carlo trials drawn per noise block: about 5 MB of noise for the
# default nine observations, whatever the trial count.
_MC_CHUNK = 1 << 16
# The largest trial count monte_carlo_validate takes: memory stays at one
# block, but time grows with the count, about 4 minutes of CPU at the cap
# at 0.25 s per 10^6 trials.
MAX_MC_TRIALS = 10**9


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
        """Empirical / analytic one-sigma widths, per parameter."""
        return np.sqrt(np.diag(self.empirical_cov) / np.diag(self.analytic_cov))


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
    cross products are kept, so memory does not grow with n_trials; time
    does, so n_trials is capped at MAX_MC_TRIALS. An
    empty set raises InsufficientData, an extinct reflection
    ForbiddenReflection, (000) DegenerateDesign, whatever sigma is.
    """
    names = ("B", "b_ne", "ln_b_nuclear")
    reflections = list(reflections)
    if not reflections:
        raise InsufficientData("no reflections left for the Monte Carlo")
    q, f, b_pred = _predicted_rows(model, crystal, reflections)
    try:
        n_trials = operator.index(n_trials)
    except TypeError:
        n_trials = 0  # refused below, like a count under two
    if n_trials < 2:
        raise ValueError("n_trials must be an integer >= 2")
    if n_trials > MAX_MC_TRIALS:
        raise ValueError(f"n_trials must be at most {MAX_MC_TRIALS}")
    seed = _check_seed(seed)
    if seed >> 128:  # Philox keys are 128 bits
        raise ValueError("the Monte-Carlo seed must be below 2**128")
    if not 0 < sigma < math.inf:
        # Zero noise leaves no spread to compare.
        raise ValueError("sigma must be positive and finite")
    x1, _, sy, x2 = _log_rows(q, b_pred, sigma, _forward(crystal, include_forward), 1.0 - f)
    design = _joint_design(x1, x2, crystal.Z / crystal.b_nuclear, free_intercept=True)
    w = 1.0 / sy**2
    analytic = _normal_cov(design, w)
    estimator = (analytic @ design.T) * w

    scaled = (estimator * sy).T  # unit-normal noise -> parameter deviations
    total = np.zeros(len(names))
    cross = np.zeros((len(names), len(names)))
    buf = np.empty((min(_MC_CHUNK, n_trials), len(names)))
    for noise in _normal_chunks(seed, n_trials, len(sy)):
        # Deviations from the noiseless solution, in one reused block; the
        # running sum, taken last, adds the rows in the order of sum(axis=0).
        params = np.matmul(noise, scaled, out=buf[:len(noise)])
        cross += params.T @ params
        total += np.add.accumulate(params, axis=0, out=params)[-1]
    mean = total / n_trials
    empirical = (cross - n_trials * np.outer(mean, mean)) / (n_trials - 1)
    return MonteCarloResult(param_names=names, analytic_cov=analytic,
                            empirical_cov=empirical, n_trials=n_trials)
