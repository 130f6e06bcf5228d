"""One workload process, started by run.py.

    python benches/worker.py WORKLOAD SEED SECONDS MODE RESULT_JSON

MODE is ``setup`` (set up, report ready, exit), ``run`` (set up, then the
untraced closed loop), ``trace`` (set up, an untraced loop for half the
time, then two traced passes over one cycle) or ``probe`` (the baseline
table; WORKLOAD is ignored). The process writes ``READY`` on stdout when
set-up ends, i.e. just before its first timed op, and its findings to
RESULT_JSON when done.

Ops and set-up are timed in this process's CPU seconds, from which the
kernel leaves out the time the hypervisor gave the virtual CPU to other
guests (steal); each op, and set-up as a whole, is bracketed by the
host-speed kernel of speed.py.
Wall times are kept beside them for the result file.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback

from common import RESULTS, SRC, WORK, Mismatch, dir_bytes, fresh_dir, load_reference
import inputs
from speed import kernel_ms
from tracer import Spans, Tracer, child_counts, summarize


def make_workload(name: str, reference: dict, work):
    sys.path.insert(0, str(SRC))
    import inproc
    return {"fringe_scan": inproc.FringeScan, "design_study": inproc.DesignStudy,
            "large_runs": inproc.LargeRuns}[name](reference, work)


def execute(wl, op):
    """Run one op (timed) and verify it (untimed).

    Returns (cpu seconds, wall seconds, error)."""
    prepare = getattr(wl, "prepare", None)
    if prepare is not None:
        prepare(op)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = wl.run(op)
        err = None
    except Exception as exc:  # the op failed: count it, keep the loop going
        out, err = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if err is None:
        try:
            wl.check(op, out)
        except Mismatch as exc:
            err = f"mismatch: {exc}"
        except Exception as exc:  # malformed output the checks could not read
            err = f"check failed: {type(exc).__name__}: {exc}"
    return cpu, wall, err


def closed_loop(wl, cycle, seconds):
    """Whole cycles, one op at a time, for about `seconds` of wall time.

    Whole cycles keep the op mix exact; another cycle starts only while
    the run would end nearer to `seconds` with it than without it. The
    speed kernel runs between ops, so each op is bracketed by two.
    Returns lists per op (cpu seconds, wall seconds, mean kernel ms of
    its bracket) and the errors."""
    cpu, wall, kernel, errors = [], [], [], []
    t_start = time.perf_counter()
    cycles = 0
    before = kernel_ms()
    while True:
        for op in cycle:
            c, w, err = execute(wl, op)
            after = kernel_ms()
            cpu.append(c)
            wall.append(w)
            kernel.append((before + after) / 2.0)
            before = after
            if err:
                errors.append(f"{op['kind']}: {err}")
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return cpu, wall, kernel, errors


# --- traced passes ----------------------------------------------------------------


def traced_pass(wl, cycle, spans, first_op_id):
    """One cycle under the tracer, a span named bench.op around each op.

    Returns (busy cpu seconds, errors, bytes written per op)."""
    bench_op = spans.name_id("bench.op")
    busy, errors, written = 0.0, [], []
    for i, op in enumerate(cycle):
        spans.op_id = first_op_id + i
        idx = spans.open(bench_op)
        dt, _, err = execute(wl, op)
        spans.close(idx)
        busy += dt
        if err:
            errors.append(f"{op['kind']}: {err}")
        written.append(dir_bytes(wl.out_dir(op)) if hasattr(wl, "out_dir") else 0)
    spans.op_id = -1
    return busy, errors, written


def command_of(op):
    return op["argv"][0] if "argv" in op else None


def function_stats(spans, ops) -> dict:
    """Per-call figures over the given ops (self times in ms)."""
    stats = summarize(spans, ops)
    out = {}
    for name, s in stats.items():
        out[name] = {"calls": s["calls"], "self_ms": s["self_s"] / s["calls"] * 1e3,
                     "total_s": s["total_s"]}
        for key in ("samples", "points", "trials", "bytes", "extrapolated", "peak_alloc"):
            if key in s:
                out[name][key] = s[key]
    prof = stats.get("fringes.intensity_profile")
    if prof:
        out["fringes.intensity_profile"]["bragg_children"] = child_counts(
            spans, ops, "fringes.intensity_profile", "planner.bragg_angle")
    return out


def counts(spans, ops, written) -> dict:
    """Counts per cycle; these must repeat exactly between two passes."""
    stats = summarize(spans, ops)

    def get(name, key="calls"):
        return stats.get(name, {}).get(key, 0)

    samples = get("fringes.intensity_profile", "samples")
    bragg = child_counts(spans, ops, "fringes.intensity_profile", "planner.bragg_angle")
    return {
        "cli.main.calls": get("cli.main"),
        "cli.bytes_written": sum(written),
        "formfactor.f_at.calls": get("formfactor.f_at"),
        "formfactor.f_at.extrapolated_calls": get("formfactor.f_at", "extrapolated"),
        "formfactor.f_at.range_errors":
            stats.get("formfactor.f_at", {}).get("errors", {}).get("FormFactorRangeError", 0),
        "lattice.structure_factor_magnitude.calls": get("lattice.structure_factor_magnitude"),
        "lattice.b_meas.calls": get("lattice.b_meas"),
        "planner.survey.calls": get("planner.survey"),
        "planner.plan_reflection.calls": get("planner.plan_reflection"),
        "planner.contamination.calls": get("planner.contamination"),
        "planner.bragg_angle.calls": get("planner.bragg_angle"),
        "fringes.intensity_profile.calls": get("fringes.intensity_profile"),
        "fringes.intensity_profile.samples": samples,
        "fringes.bragg_angle_calls_per_sample": bragg / samples if samples else 0.0,
        "fringes.bessel_j0.points": get("fringes.bessel_j0", "points"),
        "fringes.bytes_computed": get("fringes.intensity_profile", "bytes"),
        "inference.joint_fit.calls": get("inference.joint_fit"),
        "inference.error_budget.calls": get("inference.error_budget"),
        "inference.synth_measurements.calls": get("inference.synth_measurements"),
        "inference.monte_carlo_validate.calls": get("inference.monte_carlo_validate"),
        "inference.monte_carlo_validate.trials": get("inference.monte_carlo_validate", "trials"),
    }


EXACT_COUNTS = ("fringes.bragg_angle_calls_per_sample", "planner.contamination.calls",
                "formfactor.f_at.calls", "inference.monte_carlo_validate.trials",
                "cli.bytes_written")


def trace_run(wl, cycle, seconds) -> dict:
    lat, _, _, errors = closed_loop(wl, cycle, seconds / 2.0)
    untraced_ops_per_s = len(lat) / sum(lat)
    spans = Spans()
    Tracer(spans).install()
    n = len(cycle)
    busy_a, err_a, written_a = traced_pass(wl, cycle, spans, 0)
    busy_b, err_b, written_b = traced_pass(wl, cycle, spans, n)
    pass_a, pass_b = range(n), range(n, 2 * n)
    counts_a, counts_b = counts(spans, pass_a, written_a), counts(spans, pass_b, written_b)
    both = range(2 * n)
    by_command = {}
    for i, op in enumerate(cycle):
        if command_of(op):
            by_command.setdefault(command_of(op), []).extend([i, n + i])
    lattice_self = sum(s["self_s"] for name, s in summarize(spans, both).items()
                       if name.startswith("lattice."))
    RESULTS.mkdir(exist_ok=True)
    spans.dump(RESULTS / f"spans_{wl.name}.bin")
    return {
        "errors": errors + err_a + err_b,
        "attempted": len(lat) + 2 * n,
        "untraced_ops_per_s": untraced_ops_per_s,
        "traced_ops_per_s": 2 * n / (busy_a + busy_b),
        "counts": counts_a,
        "counts_repeat": {k: counts_a[k] == counts_b[k] for k in EXACT_COUNTS},
        "functions": function_stats(spans, both),
        "cli_self_ms": {cmd: function_stats(spans, ops).get("cli.main", {}).get("self_ms")
                        for cmd, ops in by_command.items()},
        "lattice_self_ms_per_op": lattice_self / (2 * n) * 1e3,
        "spans": len(spans.start),
    }


def probe_run(work) -> dict:
    sys.path.insert(0, str(SRC))
    import probe

    table = probe.table_times()
    spans = Spans()
    Tracer(spans).install()
    labels = probe.traced_ops(spans, work)
    cli_ops = {}
    for op_id, label in labels.items():
        if label.startswith("cli:"):
            cli_ops.setdefault(label[4:], []).append(op_id)
    return {
        "table": table,
        "functions": function_stats(spans, labels),
        "cli_self_ms": {cmd: function_stats(spans, ops)["cli.main"]["self_ms"]
                        for cmd, ops in cli_ops.items()},
    }


def main() -> int:
    name, seed, seconds, mode, result_path = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    work = fresh_dir(WORK / f"{mode}-{os.getpid()}")
    try:
        if mode == "probe":
            result = probe_run(work)
        else:
            kernel_start = kernel_ms()
            wl = make_workload(name, load_reference(), work)
            cycle = inputs.GENERATORS[name](seed)
            warm_errors = [f"warm-up {op['kind']}: {err}" for op in wl.warmup(cycle)
                           for _, _, err in [execute(wl, op)] if err]
            os.write(1, f"READY {time.process_time():.9f}\n".encode())
            setup_kernel_ms = (kernel_start + kernel_ms()) / 2.0
            # Nothing else may reach the launcher's pipe.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            if mode == "setup":
                result = {"errors": [], "other_errors": warm_errors,
                          "setup_kernel_ms": setup_kernel_ms}
            elif mode == "run":
                cpu, wall, kernel, errors = closed_loop(wl, cycle, seconds)
                result = {"cpu_s": cpu, "wall_s": wall, "kernel_ms": kernel, "errors": errors,
                          "other_errors": warm_errors, "setup_kernel_ms": setup_kernel_ms,
                          "cycle_ops": len(cycle),
                          "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            else:
                result = trace_run(wl, cycle, seconds)
                result["other_errors"] = warm_errors
        with open(result_path, "w") as fh:
            json.dump(result, fh)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
