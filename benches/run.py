"""Benchmark for the pendellosung package: three workloads, end to end and per layer.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
src/ directory, never from an installed copy. Workloads (see inputs.py):

  fringe_scan   intensity_profile + fringe_count in process
  design_study  SpectrumWindow sweep: survey, budgets, seeded fits
  large_runs    cli.main simulate/mc in process at sizes that leave L2

Interpreter start and package import are timed in every workload's
set-up, and per layer by `-X importtime` and a fresh-process start-up.

All load comes from one closed-loop client. With --trace 0 the run reports
the end-to-end metrics. Ops are timed in CPU seconds of the process doing
the work and scaled to the reference host speed of speed.py, measured
right before and after each op (see worker.py): op_norm_ms.p50/p90 over
every op of the run, and norm_ops_per_s as ops over their summed scaled
time. setup_s is the median of SETUP_REPEATS set-ups in fresh processes,
each scaled by the kernel run at the worker's start and at READY.
Unscaled and wall times go to the result file only.

With --trace 1 the run reports per-layer metrics: an untraced loop, two
traced passes over one cycle, the per-function baseline table,
`-X importtime` and fresh-process start-up.

Every op's output is checked against reference.json (record.py) or a
seeded statistical bound; failures count in `failed`. A result file with
the machine record goes to benches/results/. The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH, BLAS_ENV, PACKAGE_INIT, REFERENCE, RESULTS, ROOT, SRC, WORK, child_env,
)
from inputs import GENERATORS  # noqa: E402
from speed import REFERENCE_MS  # noqa: E402
from tracer import Spans  # noqa: E402

SETUP_REPEATS = 3
STARTUP_REPEATS = 3
IMPORT_REPEATS = 3
# A worker that runs longer is killed, keeping a run under 180 s.
WORKER_TIMEOUT_S = 120
ERRORS_SHOWN = 10


# --- machine and version record ----------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = {"size": _read(index / "size"),
                                "shared_cpu_list": _read(index / "shared_cpu_list")}
    return out


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pendellosung").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": BLAS_ENV,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "reference_sha256": hashlib.sha256(REFERENCE.read_bytes()).hexdigest(),
        "seed": seed,
    }


# --- worker processes -------------------------------------------------------------


class WorkerFailed(Exception):
    pass


def launch(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict | None, dict]:
    """Start a worker; returns (its set-up, its result).

    The set-up is the wall seconds from launch to READY and the worker's
    CPU seconds up to then; a probe reports no READY and gives None."""
    result_path = WORK / f"result-{mode}-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds),
           mode, str(result_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.startswith(b"READY "):
                ready = {"wall_s": time.perf_counter() - t0, "cpu_s": float(line.split()[1])}
                break
        proc.stdout.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise WorkerFailed(f"{mode} worker for {workload} exited with {code}")
    with open(result_path) as fh:
        result = json.load(fh)
    result_path.unlink()
    return ready, result


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (0-100) of a non-empty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, list, list, dict]:
    setups, setup_kernels, other_errors = [], [], []
    for i in range(SETUP_REPEATS):
        mode = "run" if i == SETUP_REPEATS - 1 else "setup"
        ready, result = launch(workload, seed, seconds, mode)
        setups.append(ready)
        setup_kernels.append(result["setup_kernel_ms"])
        other_errors += result["other_errors"]
    cpu, wall = result["cpu_s"], result["wall_s"]
    n = len(cpu)
    norm = [c * REFERENCE_MS / k for c, k in zip(cpu, result["kernel_ms"])]
    setup_norm = [s["cpu_s"] * REFERENCE_MS / k for s, k in zip(setups, setup_kernels)]
    metrics = {
        "op_norm_ms.p50": metric(percentile(norm, 50) * 1e3, "ms", n),
        "op_norm_ms.p90": metric(percentile(norm, 90) * 1e3, "ms", n),
        "norm_ops_per_s": metric(n / sum(norm), "1/s", n),
        "setup_s": metric(statistics.median(setup_norm), "s", len(setups)),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    unscaled = {
        "op_cpu_ms.p50": metric(percentile(cpu, 50) * 1e3, "ms", n),
        "op_cpu_ms.p90": metric(percentile(cpu, 90) * 1e3, "ms", n),
        "setup_cpu_s": metric(statistics.median(s["cpu_s"] for s in setups), "s", len(setups)),
        "kernel_ms.p50": metric(percentile(result["kernel_ms"], 50), "ms", n),
        "op_wall_ms.p50": metric(percentile(wall, 50) * 1e3, "ms", n),
        "op_wall_ms.p90": metric(percentile(wall, 90) * 1e3, "ms", n),
        "ops_per_wall_s": metric(n / sum(wall), "1/s", n),
        "setup_wall_s": metric(statistics.median(s["wall_s"] for s in setups), "s", len(setups)),
    }
    detail = {"unscaled": unscaled}
    return metrics, n, result["errors"], other_errors, detail


# --- per-layer run --------------------------------------------------------------------


def import_times() -> dict:
    """`-X importtime` of the package in fresh interpreters (median ms)."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pendellosung"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              check=True)
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def parse_importtime(text: str) -> dict:
    """Total for the package and the cumulative time of the outermost
    numpy and scipy imports, in ms. Children are listed before parents."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name[1:]
        level = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((level, name.strip(), int(cumulative) / 1e3))
    totals = {"import.total_ms": 0.0, "import.numpy_ms": 0.0, "import.scipy_ms": 0.0}
    stack = []  # ancestors' (level, root package), walking from the end
    for level, name, ms in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        root = name.split(".")[0]
        inside = any(r == root for _, r in stack)
        if name == "pendellosung":
            totals["import.total_ms"] += ms
        elif root in ("numpy", "scipy") and not inside:
            totals[f"import.{root}_ms"] += ms
        stack.append((level, root))
    return totals


def startup_ms() -> float:
    """Fresh-process wall time of `radius` minus its cli.main span (median)."""
    path = WORK / f"startup-{os.getpid()}.bin"
    values = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(path),
                        "radius", "--", "-0.00131"], cwd=ROOT, env=child_env(),
                       capture_output=True, check=True)
        wall = time.perf_counter() - t0
        spans = Spans.load(path)
        main = spans.name_id("cli.main")
        span_s = sum(spans.end[i] - spans.start[i] for i in range(len(spans.start))
                     if spans.name[i] == main)
        values.append((wall - span_s) * 1e3)
    path.unlink()
    return statistics.median(values)


# Functions reported as <function>.self_ms, the per-call self time.
SELF_MS = (
    "formfactor.f_at", "planner.survey", "planner.candidates", "planner.bragg_angle",
    "fringes.intensity_profile", "fringes.bessel_j0", "fringes.fringe_count",
    "inference.joint_fit", "inference.error_budget", "inference.synth_measurements",
    "inference.monte_carlo_validate",
)
# Commands reported as cli.<command>.self_ms, the self time of cli.main.
CLI_SELF_MS = ("plan", "simulate", "synth", "fit", "budget", "radius", "mc")
COUNT_UNITS = {"cli.bytes_written": "B", "fringes.bytes_computed": "B",
               "fringes.bragg_angle_calls_per_sample": "ratio"}


def per_call(functions: dict, probe: dict, name: str):
    """Figures for one function: from the workload's own calls when it
    makes any, else from the baseline probe. Returns (figures, source)."""
    if name in functions:
        return functions[name], "workload"
    return probe["functions"][name], "probe"


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, int, list, list, dict]:
    _, traced = launch(workload, seed, seconds, "trace")
    _, probe = launch(workload, seed, seconds, "probe")
    functions, sources = traced["functions"], {}
    metrics = {name: metric(v, "ms", IMPORT_REPEATS) for name, v in import_times().items()}
    metrics["process.startup_ms"] = metric(startup_ms(), "ms", STARTUP_REPEATS)
    for name, value in traced["counts"].items():
        metrics[name] = metric(value, COUNT_UNITS.get(name, "count"), 1)
    plans, sources["planner.contamination_per_plan"] = per_call(
        functions, probe, "planner.plan_reflection")
    contamination, _ = per_call(functions, probe, "planner.contamination")
    metrics["planner.contamination_per_plan"] = metric(
        contamination["calls"] / plans["calls"], "ratio", plans["calls"])
    for fname in SELF_MS:
        figures, sources[f"{fname}.self_ms"] = per_call(functions, probe, fname)
        metrics[f"{fname}.self_ms"] = metric(figures["self_ms"], "ms", figures["calls"])
    for cmd in CLI_SELF_MS:
        value = traced["cli_self_ms"].get(cmd)
        sources[f"cli.{cmd}.self_ms"] = "workload" if value is not None else "probe"
        metrics[f"cli.{cmd}.self_ms"] = metric(
            value if value is not None else probe["cli_self_ms"][cmd], "ms", 1)
    j0, sources["fringes.bessel_j0.points_per_s"] = per_call(functions, probe, "fringes.bessel_j0")
    metrics["fringes.bessel_j0.points_per_s"] = metric(j0["points"] / j0["total_s"], "1/s",
                                                       j0["calls"])
    mc, src = per_call(functions, probe, "inference.monte_carlo_validate")
    sources["inference.monte_carlo_validate.trials_per_s"] = src
    sources["inference.monte_carlo_validate.peak_alloc_mb"] = src
    metrics["inference.monte_carlo_validate.trials_per_s"] = metric(
        mc["trials"] / mc["total_s"], "1/s", mc["calls"])
    metrics["inference.monte_carlo_validate.peak_alloc_mb"] = metric(
        mc["peak_alloc"] / 2**20, "MB", mc["calls"])
    metrics["lattice.self_ms"] = metric(traced["lattice_self_ms_per_op"], "ms", 1)
    metrics["trace.overhead_pct"] = metric(
        (traced["untraced_ops_per_s"] / traced["traced_ops_per_s"] - 1.0) * 100.0, "%", 1)
    repeat = traced["counts_repeat"]
    metrics["trace.exact_counts_repeat"] = metric(int(all(repeat.values())), "count",
                                                  len(repeat))
    metrics.update(probe["table"])
    other_errors = traced["other_errors"] + [
        f"count {k} differs between two traced passes" for k, ok in repeat.items() if not ok]
    detail = {"sources": sources, "counts_repeat": repeat, "spans": traced["spans"]}
    return metrics, traced["attempted"], traced["errors"], other_errors, detail


# --- entry point ------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not PACKAGE_INIT.is_file() or not REFERENCE.is_file():
        print(f"benchmark needs {PACKAGE_INIT.relative_to(ROOT)} and "
              f"{REFERENCE.relative_to(ROOT)} in the checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    record = machine_record(args.seed)
    try:
        if args.trace:
            metrics, attempted, errors, other_errors, detail = per_layer(
                args.workload, args.seed, args.seconds)
        else:
            metrics, attempted, errors, other_errors, detail = end_to_end(
                args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    failed = len(errors)
    errors += other_errors
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "machine": record, "attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted, "errors": errors[:ERRORS_SHOWN],
                   "metrics": metrics, **detail}, fh, indent=1)
    for e in errors[:ERRORS_SHOWN]:
        print(f"failed op: {e}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
