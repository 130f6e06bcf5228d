"""The per-function baseline table, measured in one fresh process.

Every traced run executes this fixed set of calls at fixed sizes, so each
function in the table gets a per-call figure on every workload:

* untimed by the tracer, the inclusive per-call time of each table row
  (median of repeats), comparable across commits as a table;
* under the tracer, per-call self times of every function the rows and
  the seven in-process CLI commands reach. A workload that never calls a
  function reports that function's per-call figures from here.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import pendellosung as pkg
from pendellosung import fringes, inference, planner

import inproc
from common import fresh_dir

SI = pkg.SILICON
MODEL = inproc.MODELS["Si"]
R711 = pkg.Reflection(7, 1, 1)
Q_531 = pkg.q_over_4pi(SI, pkg.Reflection(5, 3, 1))
# Past the last Si sample, inside the table's extrapolation margin.
Q_PAST = pkg.SILICON_TABLE.q_max * 1.02
EIGHT = [inproc.reflection(h) for h in ("422", "511", "531", "620", "533", "551", "711", "642")]
J0_POINTS = np.linspace(0.0, 500.0, 1_000_000)


def _profile(n):
    return fringes.intensity_profile(fringes.BeamSpectrum(), SI, MODEL, R711,
                                     fringes.BladeGeometry(), n_samples=n)


_MEASUREMENTS = inference.synth_measurements(MODEL, SI, EIGHT, seed=0)

# name -> (call, repeats, unit); repeats keep each row near 0.1-0.5 s.
TABLE = {
    "table.f_at.us": (lambda: pkg.SILICON_TABLE.f_at(Q_531), 200, "us"),
    "table.f_at_past_qmax.us": (lambda: pkg.SILICON_TABLE.f_at(Q_PAST), 200, "us"),
    "table.survey_si.ms": (lambda: planner.survey(SI), 30, "ms"),
    "table.bessel_j0_1e6.ms": (lambda: fringes.bessel_j0(J0_POINTS), 3, "ms"),
    "table.profile_711_2000.ms": (lambda: _profile(2000), 20, "ms"),
    "table.profile_711_2e5.ms": (lambda: _profile(200_000), 2, "ms"),
    "table.joint_fit_8.ms": (lambda: inference.joint_fit(_MEASUREMENTS, SI, MODEL.form_factor),
                             100, "ms"),
    "table.error_budget.ms": (lambda: inference.error_budget(MODEL, SI, EIGHT), 100, "ms"),
    "table.mc_1e5.ms": (lambda: inference.monte_carlo_validate(MODEL, SI, EIGHT,
                                                               n_trials=100_000), 5, "ms"),
    "table.mc_1e6.ms": (lambda: inference.monte_carlo_validate(MODEL, SI, EIGHT,
                                                               n_trials=1_000_000), 2, "ms"),
}
SCALE = {"us": 1e6, "ms": 1e3}

# In-process CLI commands for the cli.<command> figures; fit reads synth's file.
CLI_COMMANDS = (["plan"], ["simulate", "711"], ["synth"], ["fit", "{synth}"], ["budget"],
                ["radius", "--", "-0.00131"], ["mc"])


def table_times() -> dict:
    """Untraced inclusive per-call time of each table row."""
    out = {}
    for name, (call, repeats, unit) in TABLE.items():
        call()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = {"value": statistics.median(times) * SCALE[unit], "unit": unit,
                     "samples": repeats}
    return out


def traced_ops(spans, work) -> dict:
    """Run each table row once and each CLI command once, one op each,
    under an installed tracer; returns op id -> label."""
    labels = {}
    for name, (call, _, _) in TABLE.items():
        spans.op_id = len(labels)
        labels[spans.op_id] = name
        call()
    out_dir = work / "probe"
    for argv in CLI_COMMANDS:
        spans.op_id = len(labels)
        labels[spans.op_id] = "cli:" + argv[0]
        fresh_dir(out_dir / argv[0])
        argv = [str(out_dir / "synth" / "measurements.csv") if a == "{synth}" else a
                for a in argv]
        code, _ = inproc.run_cli(argv, out_dir / argv[0])
        if code != 0:
            raise RuntimeError(f"probe command {argv} exited {code}")
    spans.op_id = -1
    return labels
