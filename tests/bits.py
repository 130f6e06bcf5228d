"""Bit identity of the library's float outputs between two trees.

Each case calls the library on fixed inputs and hashes the raw IEEE bytes
of every float it returns (or the type and message of the error it
raises). numpy's SIMD transcendentals may differ in the last bit between
CPUs, and the BLAS kernel moves the last bits of every product and
inverse, so a record holds only for the machine, numpy and kernel it was
made on; the workflow is to record with the parent tree and check the
change on the same machine:

    python tests/bits.py --record FILE   # in a checkout of the parent
    python tests/bits.py --check FILE    # in the change; names each case that differs

A record stores the kernel (numpy's BLAS and OPENBLAS_CORETYPE, which picks
a DYNAMIC_ARCH OpenBLAS's kernel per process), and --check refuses a record
made under another one instead of naming hundreds of differing cases.

This is the one tool that pins a rewrite's bits: the tests keep no frozen
copy of replaced code, only independent references (oracles.py).

The cases:

* profiles of the silicon survey reflections and Ge (111), flat and
  maxwellian, at five thicknesses from 0.03125 cm and at sample counts
  around the _SWEEP_BLOCK tile edges; fringe counts and
  pendellosung_argument values;
* J0 on a sweep, and on arrays of large arguments up to 900, of negative
  ones, of tiny ones with a NaN, 0-d, empty and strided 2-D, and on eight
  Python floats up to 1e300;
* Monte-Carlo covariances at the _MC_DRAW edges, where the running sums
  take one more draw, and one past sixteen draws, two seeds, forward datum
  in and out; and at the largest seed;
* strict and amended surveys over a window grid and seeded random
  windows, and plans of off-candidate scans;
* f_at, synthetic amplitudes, error budgets, joint fits, fit_bne and
  fit_temperature_factor on seeded synthetic data;
* the weighted line _line itself, free and fixed intercept, slope and sigma
  or sigma alone, on seeded abscissas spaced from 1 down to 1e-3 of their
  mean (cancellation factors S Sxx / (S Sxx - Sx^2) from 2.6 to 5.5e7), and on
  equal abscissas with unequal weights;
* the normal-equation inverse _normal_cov on 2- and 3-column designs with
  condition numbers from 1 to 1e17 at scales from 1e-160 to 1e160 (so the
  normal matrix runs from subnormal to overflowing), and on rank-deficient
  designs;
* error budgets, Monte Carlo and the three fits at amplitude errors from
  1e-300 to 1e300 fm, whose row weights run out of the float range at the
  ends, and a Reflection of bool indices;
* synthetic amplitudes with one sigma given as a float, an int, an
  np.float64, a 0-d array, a list and a tuple, and a list of the wrong length;
  and on the pure reflections of each window of the grid, at sigma 0.0008,
  0 and one per reflection, seeds 0 and 1 (a window whose set runs past the
  f(Q) table records its refusal);
* the Debye-Waller correction, the fits, the budget and the
  temperature-factor sigmas at temperature factors up to 1e6 A^2, where the
  factor underflows;
* crystals, models, windows, blades, form-factor tables and Measurements
  built from int and np.float64 values, run through a survey, a plan, a
  profile, a budget and the fits, and one Bragg angle at an np.float32
  wavelength.

``test_bits.py`` runs a subset of the cases on every test run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import struct
import sys
from functools import partial
from pathlib import Path

# Case name -> a call returning the value to hash; filled by _build().
CASES = {}


def _feed(h, value) -> None:
    """Feed value's type-tagged raw bytes into the hash h."""
    import numpy as np

    if value is None:
        h.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        h.update(b"d" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        h.update(b"s%d:" % len(value) + value.encode())
    elif isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            _feed(h, item)
        h.update(b")")
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def digest(fn) -> str:
    """sha256 of what fn() returns, or of the error it raises."""
    h = hashlib.sha256()
    try:
        _feed(h, fn())
    except Exception as exc:  # a typed refusal is an output too
        h = hashlib.sha256()
        _feed(h, ("raised", type(exc).__name__, str(exc)))
    return h.hexdigest()


def _profile(crystal, model, r, geom, shape, n):
    from pendellosung import BeamSpectrum, intensity_profile

    p = intensity_profile(BeamSpectrum(shape=shape), crystal, model, r, geom, n_samples=n)
    return p.lam, p.two_theta_deg, p.argument, p.intensity


def _fringe_count(crystal, model, r, geom):
    from pendellosung import SpectrumWindow, fringe_count

    fc = fringe_count(crystal, model, r, geom, SpectrumWindow())
    return fc.delta_argument, fc.period_count, fc.antinode_count


def _monte_carlo(model, crystal, refls, **kwargs):
    from pendellosung import monte_carlo_validate

    res = monte_carlo_validate(model, crystal, refls, **kwargs)
    return res.analytic_cov, res.empirical_cov


def _plan(p):
    return (p.reflection.h, p.reflection.k, p.reflection.l, str(p.reflection_class), p.q,
            p.lambda_window, p.two_theta_window, p.pure, p.note,
            [(c.order, c.reflection.h, c.reflection.k, c.reflection.l,
              c.two_theta_window, c.overlap) for c in p.contaminants])


def _survey(crystal, w, strict):
    from pendellosung import survey

    return [_plan(p) for p in survey(crystal, w, strict=strict).plans]


def _budget(*args, **kwargs):
    from pendellosung import error_budget

    b = error_budget(*args, **kwargs)
    return b.sigma_B, b.sigma_bne, b.n_reflections


def _synth(*args, **kwargs):
    from pendellosung import synth_measurements

    return [(m.b_meas, m.sigma) for m in synth_measurements(*args, **kwargs)]


def _synth_window(model, w, sigma, seed):
    """Synthetic Si amplitudes of w's pure reflections; a sigma of
    "per-reflection" runs from 1e-4 to 1e-3 fm along the set."""
    import numpy as np

    from pendellosung import SILICON, survey

    refls = [p.reflection for p in survey(SILICON, w).pure]
    if sigma == "per-reflection":
        sigma = np.linspace(1e-4, 1e-3, len(refls))
    return _synth(model, SILICON, refls, sigma=sigma, seed=seed)


def _joint_fit(ms, *args, **kwargs):
    """The fields every tree's FitResult has."""
    from pendellosung import joint_fit

    fit = joint_fit(ms, *args, **kwargs)
    return fit.param_names, fit.values, fit.covariance, fit.chi2, fit.dof


def _graded_design(seed, p, kappa, scale):
    """A 6 x p design with orthonormal columns graded so that A^T A has
    singular values from 1 down to 1/kappa, scaled by scale, and unit weights."""
    import numpy as np

    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, p)))
    return basis * (np.sqrt(np.geomspace(1.0, 1.0 / kappa, p)) * scale), np.ones(6)


def _rank_deficient_design(seed, p, scale):
    """An 8 x p integer design whose last column is a combination of the
    others, scaled by scale, with seeded weights."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, (8, p)).astype(float)
    a[:, -1] = a[:, 0] - 2.0 * a[:, 1] if p == 3 else 3.0 * a[:, 0]
    return a * scale, 10.0 ** rng.uniform(-2, 2, 8)


def _normal_cov(a, w):
    import numpy as np

    from pendellosung.inference import _normal_cov

    with np.errstate(all="ignore"):  # the overflowing scales warn in the product
        return _normal_cov(a, w)


def _build() -> None:
    from dataclasses import replace

    import numpy as np

    from pendellosung import (
        GERMANIUM, SILICON, BeamSpectrum, BladeGeometry, FormFactorTable, Measurement, Reflection,
        ScatteringModel, SpectrumWindow, bessel_j0, bragg_angle, charge_radius_from_bne,
        debye_waller, debye_waller_correct, fit_bne, fit_temperature_factor, intensity_profile,
        pendellosung_argument, plan_reflection, scattering_model, synth_measurements,
    )
    from pendellosung.constants import CODATA
    from pendellosung.fringes import _SWEEP_BLOCK
    from pendellosung.inference import _MC_DRAW, _line, temperature_factor_sigmas

    crystals = {"Si": SILICON, "Ge": GERMANIUM}
    models = {n: scattering_model(c, CODATA.b_ne_argonne_fm) for n, c in crystals.items()}
    si_pure = [Reflection(*map(int, t)) for t in
               ("111", "422", "511", "531", "620", "533", "551", "711", "642")]

    for name, r in [("Si", r) for r in si_pure] + [("Ge", Reflection(1, 1, 1))]:
        c, m = crystals[name], models[name]
        # The thinnest blade puts J0's small-argument branch in the low orders.
        for t in (0.03125, 0.5, 1.0, 2.0, 3.7):
            g = BladeGeometry(thickness_cm=t)
            for shape in ("flat", "maxwellian"):
                for n in (2, _SWEEP_BLOCK - 1, _SWEEP_BLOCK, _SWEEP_BLOCK + 1,
                          2 * _SWEEP_BLOCK + 1):
                    CASES[f"profile {name} {r.label()} {shape} t={t} n={n}"] = partial(
                        _profile, c, m, r, g, shape, n)
            CASES[f"fringe_count {name} {r.label()} t={t}"] = partial(_fringe_count, c, m, r, g)
            for lam in (0.8, 1.0, 1.2, 1.7):
                CASES[f"pendellosung_argument {name} {r.label()} t={t} lam={lam}"] = partial(
                    pendellosung_argument, c, m, r, g, lam)
    CASES["bessel_j0 sweep"] = partial(bessel_j0, np.concatenate([
        np.linspace(-40.0, 40.0, 40001), np.geomspace(1e-9, 1e4, 20001), [0.0, 5.0, 1e-5]]))
    rng = np.random.default_rng(7)
    j0_inputs = {
        "large": rng.uniform(5.0 + 1e-9, 900.0, 5001),
        "negative": -rng.uniform(0.0, 900.0, 3001),
        "tiny and nan": np.concatenate([
            rng.uniform(0.0, 1e-5, 17), [0.0, 1e-5, 5.0, np.nextafter(5.0, 6.0), np.nan],
            rng.uniform(0.0, 12.0, 1000), rng.uniform(50.0, 900.0, 1000)]),
        "0-d large": np.array(57.3),
        "0-d small": np.array(-2.5),
        "empty": np.empty(0),
        "strided 2-d": rng.uniform(-900.0, 900.0, (40, 60))[::2, ::3],
    }
    for what, x in j0_inputs.items():
        CASES[f"bessel_j0 {what}"] = partial(bessel_j0, x)
    for x in (0.0, 3e-6, 4.99, 5.0, 5.5, 123.4, -870.25, 1e300):
        CASES[f"bessel_j0 float {x!r}"] = partial(bessel_j0, x)

    mc_cases = [(n, seed) for n in (2, _MC_DRAW - 1, _MC_DRAW, _MC_DRAW + 1, 2 * _MC_DRAW + 1,
                                    16 * _MC_DRAW + 1) for seed in (0, 11)]
    for n, seed in mc_cases + [(_MC_DRAW + 1, 2**128 - 1)]:
        for fwd in (True, False):
            CASES[f"monte_carlo n={n} seed={seed} forward={fwd}"] = partial(
                _monte_carlo, models["Si"], SILICON, si_pure[1:], n_trials=n, seed=seed,
                include_forward=fwd)

    windows = [SpectrumWindow(lambda_min=a, lambda_max=b, two_theta_max=c)
               for a in (0.3, 0.5, 0.8, 1.0) for b in (1.6, 2.5, 4.0)
               for c in (60.0, 90.0, 110.0, 150.0, 180.0)]
    rng = random.Random("bits/windows")
    for _ in range(60):
        lo, hi = sorted(rng.sample([round(rng.uniform(0.2, 5.0), 3) for _ in range(4)], 2))
        t_lo, t_hi = sorted(rng.sample([round(rng.uniform(0.0, 180.0), 2) for _ in range(4)], 2))
        windows.append(SpectrumWindow(lambda_min=lo, lambda_max=hi,
                                      lambda_peak=round(rng.uniform(0.2, 5.0), 3),
                                      two_theta_min=t_lo, two_theta_max=t_hi))
    off_candidate = [Reflection(-1, 1, -1), Reflection(2, 4, -2), Reflection(0, 0, 4),
                     Reflection(4, 4, 0), Reflection(8, 4, 4), Reflection(3, 3, 1)]
    for name, crystal in crystals.items():
        for w in windows:
            for strict in (True, False):
                CASES[f"survey {name} {w} strict={strict}"] = partial(_survey, crystal, w, strict)
        for r in off_candidate:
            CASES[f"plan_reflection {name} {r}"] = lambda c=crystal, r=r: _plan(
                plan_reflection(c, r))
        table = models[name].form_factor
        CASES[f"f_at {name}"] = lambda t=table: [
            t.f_at(q) for q in np.linspace(0.0, t.q_max * 1.04, 3001).tolist()]

    model = models["Si"]
    table = model.form_factor
    for w in windows[:60]:  # the grid
        for sigma in (0.0008, 0.0, "per-reflection"):
            for seed in (0, 1):
                CASES[f"synth window {w} sigma={sigma} seed={seed}"] = partial(
                    _synth_window, model, w, sigma, seed)
    subsets = {"nine": si_pure, "eight": si_pure[1:], "strong": si_pure[1::4],
               "pair": si_pure[3:5]}
    for label, refls in subsets.items():
        CASES[f"temperature_factor_sigmas {label}"] = partial(
            temperature_factor_sigmas, model, SILICON, refls)
        for sigma in (0.0008, 0.003):
            for fwd in (True, False):
                for prop in (True, False):
                    CASES[f"error_budget {label} sigma={sigma} forward={fwd} propagate={prop}"] = \
                        partial(_budget, model, SILICON, refls, sigma_b_meas=sigma,
                                include_forward=fwd, propagate_sigma_B=prop)
        for seed in range(12):
            sigma = (0.0008, 0.0, 0.002)[seed % 3]
            CASES[f"synth {label} sigma={sigma} seed={seed}"] = partial(
                _synth, model, SILICON, refls, sigma=sigma, seed=seed)
            ms = synth_measurements(model, SILICON, refls, sigma=sigma, seed=seed)
            for fwd in (True, False):
                for free in (True, False):
                    for refine in (True, False):
                        CASES[f"joint_fit {label} seed={seed} forward={fwd} free={free} "
                              f"refine={refine}"] = partial(
                            _joint_fit, ms, SILICON, table, include_forward=fwd,
                            free_intercept=free, refine=refine)
                    CASES[f"fit_temperature_factor {label} seed={seed} forward={fwd} "
                          f"free={free}"] = partial(fit_temperature_factor, ms, SILICON,
                                                    include_forward=fwd, free_intercept=free)
                CASES[f"fit_bne {label} seed={seed} forward={fwd}"] = partial(
                    fit_bne, ms, SILICON, table, include_forward=fwd)

    for seed in range(4):
        rng = np.random.default_rng(seed)
        for k in range(4):
            n = int(rng.integers(2, 10))
            x = (1.0 + 10.0**-k * rng.uniform(-1.0, 1.0, n)) * rng.uniform(0.1, 1.0)
            sy, y = 10.0 ** rng.uniform(-1, 0, n), rng.normal(size=n)
            name = f"line spread=1e-{k} seed={seed} n={n}"
            CASES[f"{name} free"] = partial(_line, x, sy, y)
            CASES[f"{name} sigma only"] = partial(_line, x, sy)
            CASES[f"{name} fixed"] = partial(_line, x, sy, y, 0.5)
        n = int(rng.integers(2, 10))
        x, sy = np.full(n, rng.uniform(-2.0, 2.0)), 10.0 ** rng.uniform(-4, 0, n)
        CASES[f"line equal abscissas seed={seed} n={n}"] = partial(_line, x, sy, rng.normal(size=n))

    for p in (2, 3):
        for e in (-160, -80, -20, 0, 20, 80, 160):
            scale = 10.0 ** e
            for k in range(18):
                for kappa in (10.0**k,) + ((0.5e8, 2e8) if k == 8 else (0.5e14, 2e14)
                                           if k == 14 else ()):
                    CASES[f"normal_cov p={p} scale=1e{e} kappa={kappa:g}"] = partial(
                        _normal_cov, *_graded_design(100 * p + k, p, kappa, scale))
            for seed in range(3):
                CASES[f"normal_cov rank-deficient p={p} scale=1e{e} seed={seed}"] = partial(
                    _normal_cov, *_rank_deficient_design(seed, p, scale))

    exact = synth_measurements(model, SILICON, si_pure[1:], sigma=0.0)
    for sigma in (1e-300, 1e-160, 1e-76, 1e-70, 1e70, 1e76, 1e160, 1e300):
        for fwd in (True, False):
            CASES[f"sigma_range error_budget sigma={sigma:g} forward={fwd}"] = partial(
                _budget, model, SILICON, si_pure[1:], sigma_b_meas=sigma, include_forward=fwd)
        CASES[f"sigma_range monte_carlo sigma={sigma:g}"] = partial(
            _monte_carlo, model, SILICON, si_pure[1:], sigma=sigma, n_trials=100)
        ms = [Measurement(m.reflection, m.b_meas, sigma) for m in exact]
        CASES[f"sigma_range joint_fit sigma={sigma:g}"] = partial(_joint_fit, ms, SILICON, table)
        CASES[f"sigma_range fit_bne sigma={sigma:g}"] = partial(fit_bne, ms, SILICON, table)
        CASES[f"sigma_range fit_temperature_factor sigma={sigma:g}"] = partial(
            fit_temperature_factor, ms, SILICON)
        one = exact[:3] + [Measurement(exact[3].reflection, exact[3].b_meas, sigma)] + exact[4:]
        CASES[f"sigma_range joint_fit one row sigma={sigma:g}"] = partial(
            _joint_fit, one, SILICON, table)
    for v in (0, 1):
        forms = {"float": float(v), "int": v, "float64": np.float64(v), "0-d": np.array(v, float),
                 "list": [float(v)] * 8, "tuple": (float(v),) * 8}
        for form, sigma in forms.items():
            CASES[f"synth_sigma form={form} sigma={v}"] = partial(
                _synth, model, SILICON, si_pure[1:], sigma=sigma)
    CASES["synth_sigma wrong length"] = partial(_synth, model, SILICON, si_pure[1:],
                                                sigma=[0.001] * 3)
    for q in (0.0, 0.5, 0.7):
        for big_b in (0.4613, 1e3, 2900.0, 1e5):
            CASES[f"debye_waller correct B={big_b:g} q={q}"] = partial(
                debye_waller_correct, 1.0, 0.001, big_b, 0.01, q)
    for big_b in (1e3, 2900.0, 1e5, 1e6):
        hot = replace(SILICON, B=big_b)
        for fwd in (True, False):
            CASES[f"debye_waller fit_bne B={big_b:g} forward={fwd}"] = partial(
                fit_bne, exact, hot, table, include_forward=fwd)
        CASES[f"debye_waller joint_fit B={big_b:g}"] = partial(_joint_fit, exact, hot, table)
        CASES[f"debye_waller fit_temperature_factor B={big_b:g}"] = partial(
            fit_temperature_factor, exact, hot)
        hot_model = scattering_model(SILICON, CODATA.b_ne_argonne_fm, B=big_b)
        CASES[f"debye_waller error_budget model B={big_b:g}"] = partial(
            _budget, hot_model, SILICON, si_pure[1:])
        CASES[f"debye_waller temperature_factor_sigmas model B={big_b:g}"] = partial(
            temperature_factor_sigmas, hot_model, SILICON, si_pure[1:])
    # Each real argument given as an int or an np.float64 of the same value.
    crystal_keys = ("a0", "b_nuclear", "sigma_b_nuclear", "B", "sigma_B")
    for form, conv, values in (
            ("int", int, dict(a0=6, b_nuclear=4, sigma_b_nuclear=1, B=1, sigma_B=0, b_ne=0,
                              lambda_min=1, lambda_max=3, lambda_peak=2, two_theta_min=15,
                              two_theta_max=110, t=2, sigma=1)),
            ("float64", np.float64, dict({k: getattr(SILICON, k) for k in crystal_keys},
                                         b_ne=CODATA.b_ne_argonne_fm, lambda_min=0.8,
                                         lambda_max=2.5, lambda_peak=1.2, two_theta_min=15.0,
                                         two_theta_max=110.0, t=1.0, sigma=0.0008))):
        v = {k: conv(x) for k, x in values.items()}
        crystal = replace(SILICON, **{k: v[k] for k in crystal_keys})
        m = ScatteringModel(b_ne=v["b_ne"], B=v["B"], form_factor=table)
        w = SpectrumWindow(**{k: v[k] for k in ("lambda_min", "lambda_max", "lambda_peak",
                                                "two_theta_min", "two_theta_max")})
        g = BladeGeometry(thickness_cm=v["t"])
        r = Reflection(7, 1, 1)
        CASES[f"real_args {form} survey"] = partial(_survey, crystal, w, False)
        CASES[f"real_args {form} plan"] = lambda c=crystal, w=w: _plan(
            plan_reflection(c, Reflection(4, 2, 2), w))
        CASES[f"real_args {form} profile"] = lambda c=crystal, m=m, g=g, w=w: list(vars(
            intensity_profile(BeamSpectrum("maxwellian", w), c, m, r, g, n_samples=300)).values())
        CASES[f"real_args {form} bragg_angle"] = partial(bragg_angle, crystal, r, v["lambda_peak"])
        CASES[f"real_args {form} debye_waller"] = partial(debye_waller, v["B"], 0.5)
        CASES[f"real_args {form} budget"] = partial(_budget, m, crystal, si_pure[1:],
                                                    sigma_b_meas=v["sigma"])
        CASES[f"real_args {form} synth"] = partial(_synth, m, crystal, si_pure[1:],
                                                   sigma=v["sigma"], seed=3)
        ms = [Measurement(x.reflection, conv(x.b_meas) if form == "float64" else round(x.b_meas),
                          v["sigma"]) for x in synth_measurements(m, crystal, si_pure[1:], seed=3)]
        CASES[f"real_args {form} joint_fit"] = partial(_joint_fit, ms, crystal, table)
        CASES[f"real_args {form} fit_bne"] = partial(fit_bne, ms, crystal, table)
        CASES[f"real_args {form} fit_temperature_factor"] = partial(
            fit_temperature_factor, ms, crystal)
        CASES[f"real_args {form} radius"] = partial(charge_radius_from_bne, v["b_ne"],
                                                    v["sigma"])
        samples = ((conv(0), conv(1)), (conv(values["t"]), conv(values["t"]) / 4))
        CASES[f"real_args {form} f_at"] = lambda s=samples: [
            FormFactorTable("X", s).f_at(q) for q in (0.0, 0.3, 1.0, 1.9)]
    CASES["real_args float32 bragg_angle"] = partial(bragg_angle, SILICON, Reflection(4, 2, 2),
                                                     np.float32(1.2))

    CASES["reflection bool indices"] = lambda: _plan(
        plan_reflection(SILICON, Reflection(True, True, True)))
    CASES["reflection bool index label"] = lambda: Reflection(2, 2, False).label()

    CASES["joint_fit non-canonical indices"] = partial(
        _joint_fit, [Measurement(Reflection(-2, 4, 2), 3.7877),
                     Measurement(Reflection(1, -5, 1), 3.7436),
                     Measurement(Reflection(0, 2, -6), 3.5594)], SILICON, table)


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__}


def kernel() -> dict:
    """numpy's BLAS (name, version, build configuration) and OPENBLAS_CORETYPE."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {**{k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")}


def run(names) -> dict:
    return {name: digest(CASES[name]) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE", help="write every case's digest to FILE")
    mode.add_argument("--check", metavar="FILE", help="compare every case with FILE")
    args = parser.parse_args(argv)
    if args.check:
        recorded = json.loads(Path(args.check).read_text())
        # A record from before kernels were stored is checked case by case.
        now = kernel()
        was = recorded.get("kernel", now)
        if was != now:
            diff = "; ".join(f"{k} {was.get(k)!r}, here {now.get(k)!r}"
                             for k in sorted(set(was) | set(now)) if was.get(k) != now.get(k))
            print(f"refused: {args.check} was recorded under another BLAS kernel ({diff})")
            return 2
    _build()
    got = run(CASES)
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"machine": machine(), "kernel": kernel(), "cases": got}, indent=1, sort_keys=True)
            + "\n")
        print(f"recorded {len(got)} cases in {args.record}")
        return 0
    if recorded["machine"] != machine():
        print(f"note: recorded on {recorded['machine']}, checked on {machine()}")
    want = recorded["cases"]
    bad = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    for name in bad:
        print(f"DIFFERS {name}" if name in got and name in want else
              f"UNMATCHED {name} ({'not recorded' if name in got else 'not run'})")
    print(f"{len(got)} of {len(got)} cases identical" if not bad else
          f"{len(bad)} case(s) differ of {len(set(got) | set(want))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(main())
