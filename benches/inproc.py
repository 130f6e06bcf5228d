"""In-process workloads: fringe_scan, design_study and large_runs.

Each workload runs one op through the package's public functions
(``run``, timed) and then checks the op's output against the recorded
reference or against a seed-independent statistical bound (``check``,
untimed). Summaries used by the checks are the ones ``record.py`` stores.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pendellosung as pkg
from pendellosung import cli, fringes, inference, planner
from pendellosung.constants import CODATA
from pendellosung.errors import FormFactorRangeError, PendellosungError
from pendellosung.lattice import Reflection

import inputs
from common import (
    Mismatch,
    check_close,
    check_deterministic_command,
    check_mc_stdout,
    check_within_sigma,
    fresh_dir,
    simulate_key,
)

CRYSTALS = {"Si": pkg.SILICON, "Ge": pkg.GERMANIUM}
# The CLI's default model: the argonne b_ne with the crystal's own B.
MODELS = {name: pkg.scattering_model(c, CODATA.b_ne_argonne_fm) for name, c in CRYSTALS.items()}


def reflection(label: str) -> Reflection:
    return Reflection(*(int(c) for c in label))


# --- fringe_scan --------------------------------------------------------------


def fringe_key(op) -> str:
    return f"{op['crystal']}|{op['hkl']}|{op['shape']}|{op['thickness_cm']}|{op['samples']}"


def fringe_summary(profile, counts) -> dict:
    lam, tt, arg, inten = profile.lam, profile.two_theta_deg, profile.argument, profile.intensity
    return {
        "n": len(lam),
        "lam": [float(lam[0]), float(lam[-1])],
        "two_theta": [float(tt[0]), float(tt[-1])],
        "argument": [float(arg[0]), float(arg[-1])],
        "intensity_sum": float(inten.sum()),
        "intensity_moment": float((inten * lam).sum()),
        "delta_argument": counts.delta_argument,
        "periods": counts.period_count,
        "antinodes": counts.antinode_count,
    }


def fringe_profile(op):
    """One profile and its fringe counts under the default window."""
    crystal, model = CRYSTALS[op["crystal"]], MODELS[op["crystal"]]
    r = reflection(op["hkl"])
    geom = fringes.BladeGeometry(thickness_cm=op["thickness_cm"])
    profile = fringes.intensity_profile(fringes.BeamSpectrum(shape=op["shape"]), crystal,
                                        model, r, geom, n_samples=op["samples"])
    counts = fringes.fringe_count(crystal, model, r, geom, planner.DEFAULT_WINDOW)
    return profile, counts


class FringeScan:
    name = "fringe_scan"

    def __init__(self, reference: dict, work: Path):
        self.ref = reference["fringe_scan"]

    def warmup(self, cycle):
        return inputs.warmup(cycle)

    def run(self, op):
        return fringe_profile(op)

    def check(self, op, out):
        key = fringe_key(op)
        check_close(key, fringe_summary(*out), self.ref[key])


# --- design_study ---------------------------------------------------------------


def design_key(op) -> str:
    return f"{op['crystal']}|" + "|".join(str(x) for x in op["window"])


def plan_rows(result) -> list:
    return [[p.reflection.label(), str(p.reflection_class), p.pure, p.note,
             list(p.lambda_window), list(p.two_theta_window), len(p.contaminants)]
            for p in result.plans]


def budget_key(fwd: bool, prop: bool) -> str:
    return f"forward={fwd},propagate={prop}"


def design_point(op) -> dict:
    """One grid point of the instrument-design sweep.

    Degenerate designs (too few clean reflections in the table's reach)
    raise typed errors by design; their names are part of the output.
    """
    crystal = CRYSTALS[op["crystal"]]
    lmin, lmax, ttmax = op["window"]
    w = planner.SpectrumWindow(lambda_min=lmin, lambda_max=lmax, two_theta_max=ttmax)
    out = {"amended": planner.survey(crystal, w), "strict": planner.survey(crystal, w, strict=True)}
    if op["crystal"] != "Si":
        return out
    model = MODELS["Si"]
    f_values, in_table = {}, []
    for p in out["amended"].pure:
        try:
            f_values[p.reflection.label()] = model.form_factor.f_at(p.q)
            in_table.append(p.reflection)
        except FormFactorRangeError as exc:
            f_values[p.reflection.label()] = type(exc).__name__
    budgets = {}
    for fwd, prop in inputs.BUDGET_CONFIGS:
        try:
            b = inference.error_budget(model, crystal, in_table,
                                       include_forward=fwd, propagate_sigma_B=prop)
            budgets[budget_key(fwd, prop)] = [b.sigma_B, b.sigma_bne]
        except PendellosungError as exc:
            budgets[budget_key(fwd, prop)] = type(exc).__name__
    fits = []
    for seed in op["fit_seeds"]:
        ms = inference.synth_measurements(model, crystal, in_table, seed=seed)
        try:
            fits.append(inference.joint_fit(ms, crystal, model.form_factor))
        except PendellosungError as exc:
            fits.append(type(exc).__name__)
    out.update(f=f_values, budgets=budgets, fits=fits)
    return out


def design_summary(out) -> dict:
    """The seed-independent part of a design point's output."""
    summary = {"amended": plan_rows(out["amended"]), "strict": plan_rows(out["strict"])}
    if "f" in out:
        summary.update(f=out["f"], budgets=out["budgets"])
    return summary


class DesignStudy:
    name = "design_study"

    def __init__(self, reference: dict, work: Path):
        self.ref = reference["design_study"]

    def warmup(self, cycle):
        return inputs.warmup(cycle)

    def run(self, op):
        return design_point(op)

    def check(self, op, out):
        key = design_key(op)
        want = self.ref[key]
        check_close(key, design_summary(out), want["summary"])
        model = MODELS["Si"]
        for seed, fit in zip(op["fit_seeds"], out.get("fits", [])):
            what = f"{key} fit seed {seed}"
            if want["fit_error"] is not None:
                check_close(what, fit if isinstance(fit, str) else "no error", want["fit_error"])
                continue
            if isinstance(fit, str):
                raise Mismatch(f"{what}: unexpected {fit}")
            check_within_sigma(f"{what} B", fit.value("B"), fit.sigma("B"), model.B)
            check_within_sigma(f"{what} b_ne", fit.value("b_ne"), fit.sigma("b_ne"), model.b_ne)


# --- large_runs ------------------------------------------------------------------


def run_cli(argv, out_dir: Path):
    """cli.main in this process, stdout captured; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(["--out", str(out_dir), *argv])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, buf.getvalue()


class LargeRuns:
    name = "large_runs"

    def __init__(self, reference: dict, work: Path):
        self.ref = reference["cli"]
        self.work = work

    def warmup(self, cycle):
        return inputs.warmup(cycle)

    def out_dir(self, op) -> Path:
        return self.work / "out"

    def prepare(self, op):
        fresh_dir(self.out_dir(op))

    def run(self, op):
        return run_cli(op["argv"], self.out_dir(op))

    def check(self, op, out):
        code, stdout = out
        what = " ".join(op["argv"])
        if code != 0:
            raise Mismatch(f"{what}: exit code {code}")
        if op["kind"] == "mc":
            check_mc_stdout(what, stdout, self.ref)
        else:
            check_deterministic_command(what, stdout, self.out_dir(op),
                                        self.ref["simulate_large"][simulate_key(op["argv"])])
