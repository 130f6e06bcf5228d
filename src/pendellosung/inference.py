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
amplitudes of a planned set come only from _predicted_rows. Rows are lists
of Python floats from their sources (_measured_rows, _predicted_rows)
through the per-row checks; each builder then fills one numpy block, the
forward datum in column 0, and only the reductions read that block.

Inputs are checked once, where they enter: the public functions refuse what
they cannot reduce, and each row set is checked as it is built, before any
weight is formed (_require_weighable). The private reductions, _line (the
one weighted straight line of both single-parameter fits and the error
budget), _normal_cov and the Gauss-Newton steps, trust them.

Error conventions: one standard deviation, Gaussian, uncorrelated inputs.
Removing the Debye-Waller attenuation inflates the error linearly,

    sigma_b(Q) = sigma_b_meas / DW + b(Q) (Q/4pi)^2 sigma_B,

i.e. the temperature-factor term adds linearly, not in quadrature, which
reproduces the standard corrected (111) error budget (README notes).
_corrected (debye_waller_correct's core) alone writes it; the
temperature-factor error model is it with sigma_b_meas = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import (DegenerateDesign, InsufficientData, _any, _integer, _non_negative,
                     _positive, _real)
from .formfactor import FormFactorTable
from .lattice import (
    CrystalSpec,
    Reflection,
    ScatteringModel,
    _b_of_f,
    _positive_amplitude,
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
        for name in ("sigma", "b_meas"):
            object.__setattr__(self, name, _real(getattr(self, name), _positive,
                                                 f"{name} must be positive and finite"))


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with covariance.

    Parameter order is fixed: ("B", "b_ne") for the two-parameter fit,
    with "ln_b_nuclear" appended when the intercept is free. n_iter counts
    the Gauss-Newton steps taken on the exact model (at most four; a step
    below 1e-13 ends them); a step to a b(Q) that is not positive at some
    row is not taken, and the fit keeps the last good parameters, their
    covariance and their model's chi2. converged is True when the last step
    stalled below 1e-13 or moved every parameter by less than 1e-8 of its
    final sigma, False after a step not taken or when neither holds, and
    True for a fit without refinement. last_step is the largest parameter
    change of the last step taken (None when none was); p_value is the
    chi-square survival at dof (None at dof 0); condition is the 2-norm
    condition number of the final normal equations.
    """

    param_names: tuple
    values: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int
    n_iter: int
    converged: bool
    last_step: float | None
    p_value: float | None

    @property
    def condition(self) -> float:
        """s_max / s_min of the covariance, the inverse of the final normal
        matrix, whose condition number it shares; computed when read."""
        s = np.linalg.svd(self.covariance, compute_uv=False)
        return float(s[0] / s[-1])

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
    linearly (module docstring). ValueError when b(Q) is not finite, and
    for an argument that is not a real number or out of its range.
    """
    return _corrected(
        _real(b_meas_value, _any, "b_meas must be a real number in the float range"),
        _real(sigma_b_meas, _non_negative, "sigma_b_meas must be non-negative and finite"),
        _real(B, _non_negative, "B must be non-negative and finite"),
        _real(sigma_B, _non_negative, "sigma_B must be non-negative and finite"),
        _real(q_over_4pi, _any, "Q/4pi must be a real number in the float range"))


def _corrected(b_meas_value, sigma_b_meas, B, sigma_B, q):
    """debye_waller_correct on floats that the caller checked."""
    dw = debye_waller(B, q)
    b_q = b_meas_value / dw if dw else math.inf
    if abs(b_q) < math.inf:  # else dw underflowed to 0, or b(Q) overflowed or is NaN
        try:
            return b_q, sigma_b_meas / dw + b_q * q**2 * sigma_B
        except OverflowError:  # q**2, at a B small enough to leave dw nonzero
            raise ValueError(f"Q/4pi = {q:.6g} 1/A squares past the float range") from None
    raise ValueError(f"Debye-Waller factor exp(-B (Q/4pi)^2) = {dw:.6g} at B = {B:.6g} A^2, "
                     f"Q/4pi = {q:.6g} 1/A leaves b(Q) = {b_q:.6g} fm not finite")


def extract_bne_single(b_q: float, sigma_b_q: float,
                       b_nuclear: float, sigma_b_nuclear: float,
                       z: int, f: float):
    """b_ne from a single corrected amplitude and the forward value.

    b_ne = (b_nuclear - b(Q)) / (Z (1 - f)); the two input errors combine
    in quadrature and scale by the same geometric factor. ValueError for an
    argument that is not a real number (Z: an integer) or out of its range.
    """
    b_q = _real(b_q, math.isfinite, "b_q must be finite")
    sigma_b_q = _real(sigma_b_q, _non_negative, "sigma_b_q must be non-negative and finite")
    b_nuclear = _real(b_nuclear, math.isfinite, "b_nuclear must be finite")
    sigma_b_nuclear = _real(sigma_b_nuclear, _non_negative,
                            "sigma_b_nuclear must be non-negative and finite")
    z = _real(_integer(z, lambda n: n >= 1, "Z must be an integer >= 1"), _positive,
              "Z must lie in the float range")
    f = _real(f, math.isfinite, "f must be finite")
    if f >= 1.0:
        raise DegenerateDesign("f(Q) = 1 carries no b_ne signal")
    denom = z * (1.0 - f)
    return (b_nuclear - b_q) / denom, math.hypot(sigma_b_q, sigma_b_nuclear) / denom


def charge_radius_from_bne(constants: PhysicalConstants, b_ne: float,
                           sigma_b_ne: float = 0.0):
    """Mean-square charge radius <r_n^2> = 3 hbar c b_ne / (alpha m_n c^2).

    Input in fm, output in fm^2; exactly linear, sigma scales alike.
    ValueError for an input whose quotient is past the float range.
    """
    message = "b_ne must be finite, sigma_b_ne non-negative and finite"
    b_ne = _real(b_ne, math.isfinite, message)
    sigma_b_ne = _real(sigma_b_ne, _non_negative, message)
    factor = constants.radius_factor_per_fm()
    for name, value in (("<r_n^2>", b_ne), ("sigma(<r_n^2>)", sigma_b_ne)):
        if math.isinf(value / factor):
            raise ValueError(f"{name} = {value:.6g} fm / {factor:.6g} fm^-1 "
                             "is past the float range")
    return b_ne / factor, sigma_b_ne / factor


# --- shared reduction core ------------------------------------------------


# A row error sy must give a weight 1/sy^2 within 1e-150..1e150, or the weighted
# sums of the line and the normal matrix overflow or underflow.
_SY_MIN, _SY_MAX = 1e-75, 1e75


def _require_weighable(sy, sigma, name="sigma"):
    """ValueError naming the sigma (one, or a list aligned with sy's end) of
    the first row error in sy whose weight is out of range."""
    bad = [i for i, v in enumerate(sy) if not _SY_MIN <= v <= _SY_MAX]
    if bad:
        s = sigma if isinstance(sigma, (int, float)) else sigma[bad[0] - len(sy) + len(sigma)]
        raise ValueError(f"{name} = {s:.6g} fm gives a row weight 1/sy^2 outside 1e-150..1e150")


def _forward(crystal: CrystalSpec, include_forward: bool):
    """The forward datum (b_nuclear, sigma_b_nuclear) at x = 0, or None.

    Every weighted reduction takes the datum from here; a zero sigma would
    give it infinite weight, so it is refused, as is one out of weight range.
    """
    if not include_forward:
        return None
    if crystal.sigma_b_nuclear == 0:
        raise DegenerateDesign(f"{crystal.name}: sigma_b_nuclear = 0 gives the forward "
                               "datum infinite weight; set it or exclude the datum")
    s0 = crystal.sigma_b_nuclear
    _require_weighable((s0 / crystal.b_nuclear, s0), s0, "sigma_b_nuclear")
    return crystal.b_nuclear, s0


def _block(head, *cols):
    """The rows cols as one block, led in column 0 by head (the forward datum) if given."""
    k = 0 if head is None else 1
    rows = np.empty((len(cols), len(cols[0]) + k))
    if k:
        rows[:, 0] = head
    rows[:, k:] = cols
    return rows


def _log_rows(q, b, sigma, forward=None, *extra):
    """Rows of ln b = ln b_nuclear - B q^2: (x = q^2, y = ln b, sy = sigma/b).

    sigma is a scalar or a list; forward = (b_nuclear, sigma_b_nuclear) leads
    with the x = 0 datum; extra abscissa columns are 0 at that datum.
    """
    sl = sigma if isinstance(sigma, list) else [sigma] * len(b)
    sy = [s / v for s, v in zip(sl, b)]
    _require_weighable(sy, sl)
    head = forward and (0.0, math.log(forward[0]), forward[1] / forward[0]) + (0.0,) * len(extra)
    return _block(head, [v * v for v in q], np.log(b), sy, *extra)  # not math.log: it moves bits


def _corrected_rows(q, f, b, sigma, B, sigma_B, forward=None):
    """Rows of b(Q) = b_nuclear - b_ne Z (1 - f): (x = 1 - f, y = b(Q), sy), b(Q)
    and sy from _corrected, sy checked; sigma is a scalar or a list;
    forward leads with the x = 0 datum."""
    sl = sigma if isinstance(sigma, list) else [sigma] * len(q)
    b_q, sy = zip(*[_corrected(bi, si, B, sigma_B, qi) for bi, si, qi in zip(b, sl, q)])
    _require_weighable(sy, sl)
    return _block(forward and (0.0, *forward), [1.0 - v for v in f], b_q, sy)


def _require_reflections(reflections):
    """Refuse an extinct reflection (ForbiddenReflection) and (000), the
    forward beam, whose x = 0 datum only the crystal supplies."""
    for r in reflections:
        if r.n_sq == 0:
            raise DegenerateDesign("(000) is the forward beam, not a reflection")
        require_observable(r)


def _measured_rows(ms, crystal: CrystalSpec, table: FormFactorTable | None = None):
    """Per-measurement (q, f or None without a table, b_meas, sigma) lists
    of a non-empty measurement list checked by _require_reflections."""
    if not ms:
        raise InsufficientData("no measurements")
    _require_reflections(m.reflection for m in ms)
    q = [q_over_4pi(crystal, m.reflection) for m in ms]
    f = None if table is None else [table.f_at(qi) for qi in q]
    return q, f, [m.b_meas for m in ms], [m.sigma for m in ms]


def _predicted_rows(model: ScatteringModel, crystal: CrystalSpec, reflections):
    """Per-reflection (q, f, model b_meas) lists for a planned set checked
    by _require_reflections; b_meas is b_meas(crystal, model, q) on that f(Q).
    ValueError names the first reflection whose b_meas is not positive, which
    no log row or weight could take."""
    _require_reflections(reflections)
    q = [q_over_4pi(crystal, r) for r in reflections]
    f = [model.form_factor.f_at(qi) for qi in q]
    b = [_positive_amplitude(model, r, _b_of_f(crystal, model, fi) * debye_waller(model.B, qi))
         for r, qi, fi in zip(reflections, q, f)]
    return q, f, b


def _joint_design(x1, x2, scale, free_intercept: bool):
    """Columns of ln b = c - B x1 - b_ne scale x2 in (B, b_ne[, c]) order."""
    a = np.empty((len(x1), 3 if free_intercept else 2))
    np.negative(x1, out=a[:, 0])
    np.multiply(-scale, x2, out=a[:, 1])
    if free_intercept:
        a[:, 2] = 1.0
    return a


def _normal_cov(a, w):
    """(A^T W A)^-1 of a weighted fit with design a and weights w.

    A singular or non-finite inverse, or a 2-norm condition number
    s_max / s_min above 1e14 (np.linalg.cond's value), is refused. As
    s_max / s_min <= ||M||_F ||M^-1||_F, an inverse whose norm product is at
    most 1e8 is returned at once, six decades under the cap (NaN or inf fails
    the test); the singular values are taken only for the other designs.
    """
    awa = a.T @ (w[:, None] * a)
    try:
        cov = np.linalg.inv(awa)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesign("collinear fit abscissas") from exc
    if float(np.vdot(awa, awa)) * float(np.vdot(cov, cov)) <= 1e16:
        return cov
    if np.isfinite(cov).all():
        s = np.linalg.svd(awa, compute_uv=False)
        s_max, s_min = float(s[0]), float(s[-1])
        if s_min != 0.0 and s_max / s_min <= 1e14:
            return cov
    raise DegenerateDesign("collinear fit abscissas")


def _line(x, sy, y=None, fixed_intercept=None):
    """(slope, its sigma) of the weighted line y = c + slope x, c free or
    fixed_intercept, on rows the caller checked; the slope is None without y.
    A free c goes by centring x - x[k], k the heaviest row, and y on their
    weighted means (equal abscissas centre to exactly 0), a fixed one by
    subtracting it from y."""
    w = 1.0 / sy**2
    if fixed_intercept is None:
        x, s = x - x[w.argmax()], w.sum()
        x = x - (w * x).sum() / s
        y = None if y is None else y - (w * y).sum() / s
    else:
        y = y - fixed_intercept
    wx = w * x
    sxx = float((wx * x).sum())
    if not 0 < sxx < math.inf:
        raise DegenerateDesign("abscissas do not constrain a slope")
    return None if y is None else (wx * y).sum() / sxx, math.sqrt(1.0 / sxx)


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing sums are degenerate
        slope, sigma = _line(x, sy, y, None if free_intercept else math.log(crystal.b_nuclear))
    return -slope, sigma


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing sums are degenerate
        slope, sigma = _line(x, sy, y)
    return -slope / crystal.Z, sigma / crystal.Z


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
    refine=False keeps the linear solution: its covariance is the one
    monte_carlo_validate samples, bit for bit on noiseless data.
    """
    if len(ms) < 2:
        raise InsufficientData("joint fit needs at least two reflections")
    q, f, b, s = _measured_rows(ms, crystal, table)
    if len(set(q)) == 1 and len(set(f)) == 1:
        raise DegenerateDesign("all measurements share one (q^2, 1-f) point")
    x1, y, sy, x2 = _log_rows(q, b, s, _forward(crystal, include_forward),
                              [1.0 - v for v in f])

    names = ("B", "b_ne") + (("ln_b_nuclear",) if free_intercept else ())
    design = _joint_design(x1, x2, crystal.Z / crystal.b_nuclear, free_intercept)
    w = 1.0 / sy**2
    offset = 0.0 if free_intercept else math.log(crystal.b_nuclear)

    def solve_normal(a, resid):
        cov = _normal_cov(a, w)
        return cov @ (a.T @ (w * resid)), cov

    theta, cov = solve_normal(design, y - offset)

    def exact_model(t):  # t: the parameters as floats
        bq = math.exp(t[2] if free_intercept else offset) - t[1] * crystal.Z * x2
        if any(v <= 0 for v in bq.tolist()):
            return None, None
        return np.log(bq) - t[0] * x1, bq

    model = design @ theta + offset
    # Gauss-Newton steps accepted, and whether the last one stalled below 1e-13
    # (refine=False keeps the linear solution, which needs no steps).
    n_iter, converged, last_step = 0, not refine, None
    if refine:
        # The Jacobian's columns, rewritten in place each step; the first
        # and the b_ne numerator do not change.
        jac = np.empty_like(design)
        np.negative(x1, out=jac[:, 0])
        z_x2 = -crystal.Z * x2
        t = theta.tolist()
        model_exact, bq = exact_model(t)
        while model_exact is not None and n_iter < 4 and not converged:
            model = model_exact
            np.divide(z_x2, bq, out=jac[:, 1])
            if free_intercept:
                np.divide(math.exp(t[2]), bq, out=jac[:, 2])
            step, step_cov = solve_normal(jac, y - model)
            trial = theta + step
            t = trial.tolist()
            model_exact, bq = exact_model(t)
            if model_exact is not None:  # else not taken: theta keeps model and covariance
                theta, cov = trial, step_cov
                n_iter += 1
                steps = [abs(v) for v in step.tolist()]
                last_step = max(steps) if sum(steps) >= 0 else math.nan  # NaN as np.max
                converged = last_step < 1e-13
        if model_exact is not None:
            model = model_exact
            # Or the last step (one was taken) is negligible on each sigma.
            converged = converged or all(
                c > 0 and v < 1e-8 * math.sqrt(c) for v, c in zip(steps, cov.diagonal().tolist()))

    chi2 = float((w * (y - model) ** 2).sum())
    dof = len(y) - len(theta)
    return FitResult(param_names=names, values=np.asarray(theta, dtype=float),
                     covariance=cov, chi2=chi2, dof=dof, n_iter=n_iter, converged=converged,
                     last_step=last_step, p_value=_chi2_survival(chi2, dof) if dof > 0 else None)


def _chi2_survival(chi2: float, dof: int) -> float:
    """P(X > chi2) for X chi-square distributed with dof >= 1 degrees of
    freedom, from the finite sums of Abramowitz & Stegun 26.4.4 (odd dof)
    and 26.4.5 (even dof); it reads 0 once exp(-chi2/2) underflows.
    """
    h = 0.5 * chi2
    if dof % 2 == 0:
        term = total = math.exp(-h)
        for k in range(1, dof // 2):
            term *= h / k
            total += term
        return total
    x = math.sqrt(chi2)
    total = math.erfc(x / math.sqrt(2.0))
    term = math.sqrt(2.0 / math.pi) * x * math.exp(-h)
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= chi2 / (2 * r + 1)
    return total


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
    sigma_b_meas = _real(sigma_b_meas, _positive, "sigma_b_meas must be positive and finite")
    if (len(refls) + (1 if include_forward else 0)) < 2:
        raise DegenerateDesign("need two abscissas (reflections plus forward point)")
    forward = _forward(crystal, include_forward)
    x, _, sy = _log_rows(q, b_pred, sigma_b_meas, forward)
    sigma_big_b = _line(x, sy)[1]
    x, _, sy = _corrected_rows(q, f, b_pred, sigma_b_meas, model.B,
                               sigma_big_b if propagate_sigma_B else 0.0, forward)
    return BudgetResult(sigma_B=sigma_big_b, sigma_bne=_line(x, sy)[1] / crystal.Z,
                        n_reflections=len(refls))


# --- synthetic data and Monte Carlo --------------------------------------


def _check_seed(seed) -> int:
    """seed as an int; ValueError unless it is a non-negative integer."""
    return _integer(seed, lambda n: n >= 0, "seed must be a non-negative integer")


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
    message = "sigma must be non-negative and finite"
    if isinstance(sigma, (int, float)):  # np.float64 too
        sl = [_real(sigma, _non_negative, message)] * len(refls)
    else:
        sl = [_real(s, _non_negative, message) for s in
              np.broadcast_to(np.asarray(sigma, dtype=object), (len(refls),)).tolist()]
    noise = np.random.default_rng(_check_seed(seed)).standard_normal(len(refls))
    return [Measurement(reflection=r, b_meas=b + s * e, sigma=s if s > 0 else DEFAULT_SIGMA_B_MEAS)
            for r, b, s, e in zip(refls, b_pred, sl, noise.tolist())]


def temperature_factor_sigmas(model: ScatteringModel, crystal: CrystalSpec,
                              reflections):
    """Corrected-amplitude errors from the temperature factor alone.

    debye_waller_correct with sigma_b_meas = 0 (infinitely precise b_meas):
    b(Q) (Q/4pi)^2 crystal.sigma_B, growing with Q^2. An extinct
    reflection raises ForbiddenReflection, (000) DegenerateDesign.
    """
    q, _, b = _predicted_rows(model, crystal, list(reflections))
    return np.array([_corrected(bi, 0.0, model.B, crystal.sigma_B, qi)[1]
                     for bi, qi in zip(b, q)], dtype=float)


# Monte-Carlo trials per noise draw, which sets both the working memory (288
# KiB of noise for the default nine observations and a 96 KiB parameter
# scratch) and how the running sums are grouped, whatever the trial count.
_MC_DRAW = 1 << 12
# The largest trial count monte_carlo_validate takes: memory stays at one
# draw, but time grows with the count, about 4 minutes of CPU at the cap
# at 0.25 s per 10^6 trials.
MAX_MC_TRIALS = 10**9


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
    _MC_DRAW at a time from that one stream, and each draw's parameters are
    added straight into running sums and cross products, so memory does not
    grow with n_trials; time does, so n_trials is capped at MAX_MC_TRIALS. An
    empty set raises InsufficientData, an extinct reflection
    ForbiddenReflection, (000) DegenerateDesign, whatever sigma is.
    """
    names = ("B", "b_ne", "ln_b_nuclear")
    reflections = list(reflections)
    if not reflections:
        raise InsufficientData("no reflections left for the Monte Carlo")
    q, f, b_pred = _predicted_rows(model, crystal, reflections)
    n_trials = _integer(n_trials, lambda n: n >= 2, "n_trials must be an integer >= 2")
    if n_trials > MAX_MC_TRIALS:
        raise ValueError(f"n_trials must be at most {MAX_MC_TRIALS}")
    seed = _check_seed(seed)
    if seed >> 128:  # Philox keys are 128 bits
        raise ValueError("the Monte-Carlo seed must be below 2**128")
    sigma = _real(sigma, _positive, "sigma must be positive and finite")  # 0: no spread
    x1, _, sy, x2 = _log_rows(q, b_pred, sigma, _forward(crystal, include_forward),
                              [1.0 - v for v in f])
    design = _joint_design(x1, x2, crystal.Z / crystal.b_nuclear, free_intercept=True)
    w = 1.0 / sy**2
    analytic = _normal_cov(design, w)
    estimator = (analytic @ design.T) * w

    scaled = (estimator * sy).T  # unit-normal noise -> parameter deviations
    total = np.zeros(len(names))
    cross = np.zeros((len(names), len(names)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    noise = np.empty((min(_MC_DRAW, n_trials), len(sy)))
    params = np.empty((len(noise), len(names)))
    ones = np.ones(len(noise))  # the row sum as one product: axis-0 sum is slower
    for start in range(0, n_trials, _MC_DRAW):
        k = min(_MC_DRAW, n_trials - start)
        p = np.matmul(rng.standard_normal(out=noise[:k]), scaled, out=params[:k])
        cross += p.T @ p
        total += ones[:k] @ p
    mean = total / n_trials
    empirical = (cross - n_trials * np.outer(mean, mean)) / (n_trials - 1)
    return MonteCarloResult(param_names=names, analytic_cov=analytic,
                            empirical_cov=empirical, n_trials=n_trials)
