"""Paths, reference data and the comparison rules shared by the benchmark.

Stdlib only: the launcher imports this module without importing the
package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "pendellosung" / "__init__.py"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"

# Library numbers must agree with the recorded reference to this relative
# tolerance, the J0 accuracy bessel_j0's docstring states.
REL_TOL = 1e-9
# Seeded fits must recover the generating model within this many sigma.
N_SIGMA = 5.0

# One BLAS thread in every process the benchmark starts: the load is one
# closed-loop client, and pinning keeps runs comparable on a shared host.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """Environment for processes that import the package from src/."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class Mismatch(Exception):
    """An op's output differs from the reference or fails a seeded check."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def normalize_stdout(text: str, out_dir) -> str:
    """Command stdout with the run-specific output directory masked."""
    return text.replace(str(out_dir), "OUT")


def check_close(what: str, got, want) -> None:
    """Numbers (or nested lists/dicts of them) equal at REL_TOL; other
    values (labels, flags, error names) equal exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise Mismatch(f"{what}: keys {sorted(got) if isinstance(got, dict) else got} "
                           f"!= {sorted(want)}")
        for k in want:
            check_close(f"{what}.{k}", got[k], want[k])
    elif isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            raise Mismatch(f"{what}: {got!r} != {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            check_close(f"{what}[{i}]", g, w)
    elif isinstance(want, float) and not isinstance(got, (str, bool)):
        if not math.isclose(float(got), want, rel_tol=REL_TOL, abs_tol=0.0):
            raise Mismatch(f"{what}: {got!r} != {want!r} (rel tol {REL_TOL})")
    elif got != want:
        raise Mismatch(f"{what}: {got!r} != {want!r}")


def check_within_sigma(what: str, value: float, sigma: float, truth: float) -> None:
    if not (sigma > 0 and abs(value - truth) <= N_SIGMA * sigma):
        raise Mismatch(f"{what}: {value!r} +- {sigma!r} is more than "
                       f"{N_SIGMA} sigma from {truth!r}")


def check_sigma_ratio(what: str, ratio: float, n_trials: int) -> None:
    """An empirical/analytic sigma ratio from n Gaussian trials has a
    standard deviation of about 1/sqrt(2(n-1)); accept N_SIGMA of it."""
    band = N_SIGMA / math.sqrt(2.0 * (n_trials - 1))
    if not abs(ratio - 1.0) <= band:
        raise Mismatch(f"{what}: ratio {ratio!r} outside 1 +- {band:.4g}")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def fresh_dir(path: Path) -> Path:
    """Empty directory at path (removed and recreated)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# --- CLI output checks, used by large_runs ---------------------------------------

_MC_LINE = re.compile(r"sigma\((\w+)\): analytic (\S+), empirical (\S+), ratio (\S+)")
_MC_HEAD = re.compile(r"monte carlo over (\d+) trials")


def check_mc_stdout(what: str, stdout: str, ref: dict) -> None:
    """Analytic sigmas match the reference; empirical ones sit in the
    statistical band for the trial count (holds for every seed)."""
    head = _MC_HEAD.search(stdout)
    lines = _MC_LINE.findall(stdout)
    if head is None or [name for name, *_ in lines] != list(ref["mc_analytic"]):
        raise Mismatch(f"{what}: unexpected mc output {stdout!r}")
    n = int(head.group(1))
    for name, analytic, _, ratio in lines:
        check_close(f"{what} analytic sigma({name})", analytic, ref["mc_analytic"][name])
        check_sigma_ratio(f"{what} sigma({name})", float(ratio), n)


def check_deterministic_command(what: str, stdout: str, out_dir: Path, want: dict) -> None:
    check_close(f"{what} stdout", sha256_bytes(normalize_stdout(stdout, out_dir).encode()),
                want["stdout"])
    for name, digest in want["files"].items():
        path = out_dir / name
        if not path.is_file():
            raise Mismatch(f"{what}: {name} not written")
        check_close(f"{what} {name}", sha256_file(path), digest)


def simulate_key(argv) -> str:
    return " ".join(argv)
