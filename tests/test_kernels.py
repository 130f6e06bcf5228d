"""The byte contract under other BLAS kernels.

numpy's scipy-openblas is built with DYNAMIC_ARCH, so OPENBLAS_CORETYPE
picks its gemm and LAPACK kernel per process. The golden digests and the
command-line grid must hold under each kernel, and so must the Monte-Carlo
tests, which bound the covariance against np.cov and across draw sizes; the
last bits of fit values and covariances and of Monte-Carlo covariances need
not (README, Determinism). Each run is a fresh process, since OpenBLAS reads
the variable once, when it loads.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in str(blas.get("name")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration")))


pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _dynamic_openblas(),
    reason="needs numpy on an x86-64 OpenBLAS built with DYNAMIC_ARCH")


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
@pytest.mark.parametrize("argv", [
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py"],
    ["tests/grid.py", "--check"],
    ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_inference.py", "-k", "MonteCarlo"],
], ids=["goldens", "grid", "monte-carlo"])
def test_byte_contract_holds_under_kernel(coretype, argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
