"""Bit identity of the library's float outputs between two trees.

Each case calls the library on fixed inputs and hashes the raw IEEE bytes
of every float it returns (or the type and message of the error it
raises). numpy's SIMD transcendentals may differ in the last bit between
CPUs, so a record holds only for the machine and numpy it was made on;
the workflow is to record with the parent tree and check the change on
the same machine:

    python tests/bits.py --record FILE   # in a checkout of the parent
    python tests/bits.py --check FILE    # in the change; names each case that differs

The cases:

* profiles of the silicon survey reflections and Ge (111), flat and
  maxwellian, at four thicknesses and at sample counts around the
  _SWEEP_BLOCK tile edges; fringe counts, pendellosung_argument values
  and a J0 sweep;
* Monte-Carlo covariances at the _MC_CHUNK edges, two seeds, forward
  datum in and out;
* strict and amended surveys over a window grid and seeded random
  windows, and plans of off-candidate scans;
* f_at, synthetic amplitudes, error budgets, joint fits, fit_bne and
  fit_temperature_factor on seeded synthetic data.

``test_bits.py`` runs a subset of the cases on every test run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _joint_fit(ms, *args, **kwargs):
    """The fields every tree's FitResult has."""
    from pendellosung import joint_fit

    fit = joint_fit(ms, *args, **kwargs)
    return fit.param_names, fit.values, fit.covariance, fit.chi2, fit.dof


def _build() -> None:
    import numpy as np

    from pendellosung import (
        GERMANIUM, SILICON, BladeGeometry, Measurement, Reflection, SpectrumWindow,
        bessel_j0, fit_bne, fit_temperature_factor, pendellosung_argument, plan_reflection,
        scattering_model, synth_measurements,
    )
    from pendellosung.constants import CODATA
    from pendellosung.fringes import _SWEEP_BLOCK
    from pendellosung.inference import _MC_CHUNK, temperature_factor_sigmas

    crystals = {"Si": SILICON, "Ge": GERMANIUM}
    models = {n: scattering_model(c, CODATA.b_ne_argonne_fm) for n, c in crystals.items()}
    si_pure = [Reflection(*map(int, t)) for t in
               ("111", "422", "511", "531", "620", "533", "551", "711", "642")]

    for name, r in [("Si", r) for r in si_pure] + [("Ge", Reflection(1, 1, 1))]:
        c, m = crystals[name], models[name]
        for t in (0.5, 1.0, 2.0, 3.7):
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

    for n in (2, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 2 * _MC_CHUNK + 1):
        for seed in (0, 11):
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


def run(names) -> dict:
    return {name: digest(CASES[name]) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE", help="write every case's digest to FILE")
    mode.add_argument("--check", metavar="FILE", help="compare every case with FILE")
    args = parser.parse_args(argv)
    _build()
    got = run(CASES)
    if args.record:
        Path(args.record).write_text(json.dumps({"machine": machine(), "cases": got},
                                                indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(got)} cases in {args.record}")
        return 0
    recorded = json.loads(Path(args.check).read_text())
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
