"""Byte-identity grid of the command line.

Each case runs ``pendellosung`` in process (``cli.main``) in a fresh
directory that holds the config and data files below, with ``--out out``,
so every path a command prints is the same from run to run. ``grid.json``
records per case the exit code (or the type and message of an exception
the command let escape), the warnings raised, and the sha256 of stdout, of
stderr and of every file written under ``out/``.

    python tests/grid.py --check     # run every case against grid.json
    python tests/grid.py --record    # rewrite grid.json, naming what changes

``test_grid.py`` checks every case on every test run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

GRID_JSON = Path(__file__).with_name("grid.json")

# The built-in silicon table as a CSV sampled at the survey reflections,
# (551) and (711) at the same q.
_SI_TABLE = """q_over_4pi_A_inv,f
0,1
0.15946787972578932,0.7526
0.45104327654218557,0.4788
0.478403639177368,0.46
0.5446865041007101,0.415
0.5822943661555704,0.3902
0.6037356487079062,0.3764
0.6575029120027225,0.3432
0.6575029120027225,0.3432
0.688979985485155,0.3249
"""

_SI_MEASUREMENTS = """h,k,l,b_meas_fm,sigma_fm
4,2,2,3.78769,0.0008
5,1,1,3.74362,0.0008
5,3,1,3.62966,0.0008
6,2,0,3.55936,0.0008
5,3,3,3.51755,0.0008
5,5,1,3.41042,0.0008
7,1,1,3.41117,0.0008
6,4,2,3.34513,0.0008
"""

# Files every case finds in its directory.
FILES = {
    "si_ff.csv": _SI_TABLE,
    "ge_ff.csv": "q_over_4pi_A_inv,f\n0,1\n0.15,0.86\n0.3,0.62\n0.45,0.46\n0.6,0.37\n0.75,0.31\n",
    "nan_ff.csv": "q_over_4pi_A_inv,f\n0,1\n0.2,0.8\n0.3,nan\n0.5,0.5\n",
    "short_ff.csv": "q_over_4pi_A_inv,f\n0,1\n0.5\n",
    "si_meas.csv": _SI_MEASUREMENTS,
    # The same rows with a blank line inside: the same fit.
    "si_meas_blank.csv": _SI_MEASUREMENTS.replace("6,2,0", "\n6,2,0"),
    "si_one.csv": "h,k,l,b_meas_fm,sigma_fm\n1,1,1,4.0594,0.0008\n",
    "ge_meas.csv": """h,k,l,b_meas_fm,sigma_fm
4,2,2,7.38194,0.0008
5,1,1,7.28514,0.0008
5,3,1,7.03322,0.0008
6,2,0,6.87831,0.0008
5,3,3,6.78559,0.0008
5,5,1,6.55025,0.0008
7,1,1,6.54975,0.0008
6,4,2,6.40661,0.0008
""",
    "extinct_meas.csv": "h,k,l,b_meas_fm,sigma_fm\n1,0,0,4.1,0.0008\n4,2,2,3.78,0.0008\n",
    # Errors whose row weights (b/sigma)^2 leave the float range.
    "tiny_sigma_meas.csv": _SI_MEASUREMENTS.replace(",0.0008", ",1e-300"),
    # A byte that is not UTF-8 in a row.
    "latin1_meas.csv": _SI_MEASUREMENTS.encode().replace(b"3.78769", b"3.78\xb0"),
}

_INLINE = ("[crystal]\nname = Si28\na0 = 5.43072\nZ = 14\nb_nuclear = 4.1507\n"
           "sigma_b_nuclear = 0.0002\nB = 0.4613\nsigma_B = 0.0027\n"
           "form_factor_csv = si_ff.csv\n[model]\nreference = dubna\n")

# Config name -> the text of cfg.ini (None: no --config); a file's text
# here or in FILES is written as UTF-8 unless it is given as bytes.
CONFIGS = {
    "si": None,
    "ge": "[crystal]\nname = Ge\n",
    "ge_table": "[crystal]\nname = Ge\nform_factor_csv = ge_ff.csv\n",
    "inline": _INLINE,
    "no_forward": "[fit]\ninclude_forward = false\nfree_intercept = false\n",
    "window": "[spectrum]\nlambda_min = 0.7\nlambda_max = 2.0\ntwo_theta_max = 100\n",
    "narrow": "[spectrum]\ntwo_theta_max = 45\n",
    # A peak wavelength whose survey walk is past the planner's bound.
    "deep_peak": "[spectrum]\nlambda_peak = 0.01\n",
    "blade": "[blade]\nthickness_cm = 0.5\n[model]\nb_ne = 0.01\nB = 0.3\n[run]\nseed = 9\n",
    # b(Q) DW is negative at every planned reflection past (111).
    "big_bne": "[model]\nb_ne = 1.0\n",
    # Error configurations.
    "malformed": "[crystal\nname = Si\n",
    "unknown_crystal": "[crystal]\nname = W\n",
    "inline_no_table": _INLINE.replace("Si28", "X").replace("form_factor_csv = si_ff.csv\n", ""),
    "bad_reference": "[model]\nreference = foo\n",
    "unknown_key": "[crystal]\nlattice = 5.43\n",
    "missing_table": "[crystal]\nform_factor_csv = nope.csv\n",
    "nan_table": "[crystal]\nform_factor_csv = nan_ff.csv\n",
    # A table row of one field.
    "short_table": "[crystal]\nform_factor_csv = short_ff.csv\n",
    "nan_blade": "[blade]\nthickness_cm = nan\n",
    # Finite, but the J0 argument overflows.
    "huge_blade": "[blade]\nthickness_cm = 1e300\n",
    "bad_seed": "[run]\nseed = -3\n",
    "zero_sigma_forward": _INLINE.replace("sigma_b_nuclear = 0.0002\n", ""),
    "tiny_sigma_forward": _INLINE.replace("sigma_b_nuclear = 0.0002", "sigma_b_nuclear = 1e-300"),
    # The crystal's Debye-Waller factor underflows to 0 at every reflection.
    "huge_b": _INLINE.replace("B = 0.4613", "B = 100000"),
    # A UTF-16 byte-order mark, which is not UTF-8.
    "not_utf8": b"\xff\xfe[crystal]\nname = Si\n",
}

_FIT_MODES = [["fit", "si_meas.csv", "--mode", m] for m in ("auto", "joint", "bne", "B")]
# Every command the README lists, and the option paths of each.
_FULL = [
    ["plan"], ["plan", "--all"], ["plan", "--all", "--strict"],
    ["simulate", "711"], ["simulate", "111", "--spectrum", "maxwellian", "--samples", "300"],
    ["synth", "--sigma", "0.0008"], ["synth", "--seed", "7", "--all-pure",
                                     "--error-model", "temperature-factor"],
    ["fit", "si_meas.csv"], *_FIT_MODES[1:],
    ["budget"], ["budget", "--primary-only"], ["budget", "--hkl", "422", "620", "642"],
    ["mc", "--trials", "2000", "--seed", "3"],
]
_ERRORS = [["plan"], ["simulate", "711"], ["budget"], ["synth"], ["mc", "--trials", "100"]]

# (config, argv) per case name.
CASES = {}


def _add(config, commands):
    for argv in commands:
        CASES[f"{config}: {' '.join(argv)}"] = (config, argv)


_add("si", _FULL + [
    ["radius", "--", "-0.00131"], ["radius", "--sigma", "0.0003", "--", "-0.00131"],
    ["mc", "--trials", "100000"], ["synth", "--sigma", "0"],
    ["simulate", "642", "--samples", "5000", "--spectrum", "maxwellian"],
    ["fit", "si_meas_blank.csv"], ["fit", "si_one.csv"],
    ["fit", "si_one.csv", "--mode", "joint"], ["fit", "extinct_meas.csv"],
    ["fit", "missing.csv"], ["budget", "--hkl", "100", "200"], ["budget", "--hkl", "000", "422"],
    ["budget", "--hkl", "422"], ["budget", "--sigma", "0"], ["simulate", "42"],
    ["simulate", "222"], ["simulate", "999"], ["simulate", "711", "--samples", "1"],
    ["mc", "--sigma", "0"], ["mc", "--trials", "1"], ["synth", "--sigma", "10"],
    ["radius", "--", "nan"], ["simulate", "1" + "0" * 200 + ",0,0"],
    ["mc", "--trials", "100", "--seed", str(2**128)], ["mc", "--trials", "1000000001"],
    ["budget", "--sigma", "1e-300"], ["budget", "--sigma", "1e300"],
    ["mc", "--trials", "100", "--sigma", "1e-300"], ["mc", "--trials", "100", "--sigma", "1e300"],
    ["fit", "tiny_sigma_meas.csv"], ["fit", "tiny_sigma_meas.csv", "--mode", "B"],
    ["plan", "--out", "si_meas.csv"],  # an existing file as the output directory
    ["radius", "--", "1e308"], ["radius", "--sigma", "1e308", "--", "1"],
    ["fit", "latin1_meas.csv"],
])
_add("ge", [["plan"], ["plan", "--all", "--strict"], ["simulate", "111"], ["simulate", "711"],
            ["budget"], ["synth"], ["mc"]])
_add("ge_table", [c for c in _FULL if c[0] != "fit"]
     + [["fit", "ge_meas.csv", "--mode", m] for m in ("auto", "joint", "bne", "B")])
_add("inline", _FULL)
_add("no_forward", _FULL + [["budget", "--hkl", "422", "--primary-only"]])
_add("window", _FULL)
_add("narrow", [["plan"], ["plan", "--all", "--strict"], ["budget"], ["synth"],
                ["mc", "--trials", "100"]])
_add("blade", [["plan"], ["simulate", "711"], ["simulate", "531", "--spectrum", "maxwellian"],
               ["synth"], ["mc", "--trials", "500"]])
for _config in ("malformed", "unknown_crystal", "inline_no_table", "bad_reference",
                "unknown_key", "missing_table", "short_table", "nan_blade", "bad_seed",
                "not_utf8"):
    _add(_config, [["plan"]])
_add("nan_table", _ERRORS)
_add("deep_peak", [["plan"]])
_add("huge_blade", [["simulate", "711"]])
_add("big_bne", [["plan"], ["simulate", "711"], ["budget"], ["mc", "--trials", "100"], ["synth"],
                 ["synth", "--error-model", "temperature-factor"]])
_add("zero_sigma_forward", [["budget"], ["mc", "--trials", "100"], ["fit", "si_meas.csv"]])
_add("tiny_sigma_forward", [["budget"], ["mc", "--trials", "100"], ["fit", "si_meas.csv"]])
_add("huge_b", [["fit", "si_meas.csv", "--mode", "bne"]])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in workdir, a fresh empty directory, and return its
    record."""
    from pendellosung.cli import main

    config, argv = CASES[name]
    files = {**FILES, "cfg.ini": CONFIGS[config]}
    for file, text in files.items():
        if text is not None:
            (workdir / file).write_bytes(text if isinstance(text, bytes) else text.encode())
    head = ["--out", "out"]
    if CONFIGS[config] is not None:
        head += ["--config", "cfg.ini"]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(head + argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception as exc:  # a crash is this case's result, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    out = workdir / "out"
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "warnings": sorted({w.category.__name__ for w in caught}),
        "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
    }


def run_all(names) -> dict:
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(names):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            records[name] = run_case(name, workdir)
    return records


def load() -> dict:
    return json.loads(GRID_JSON.read_text())


def _changed_keys(got, want) -> list:
    """The record keys that differ, or ["case"] when one side is missing."""
    if got is None or want is None:
        return ["case"]
    return [k for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare every case with grid.json")
    mode.add_argument("--record", action="store_true", help="rewrite grid.json")
    args = parser.parse_args(argv)
    records = run_all(CASES)
    if args.record:
        old = load() if GRID_JSON.exists() else {}
        for name in sorted(set(records) | set(old)):
            if name not in old:
                print(f"adds {name}")
            elif name not in records:
                print(f"drops {name}")
            elif records[name] != old[name]:
                print(f"changes {name}: {', '.join(_changed_keys(records[name], old[name]))}")
        GRID_JSON.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(records)} cases in {GRID_JSON}")
        return 0
    expected = load()
    bad = 0
    for name in sorted(set(records) | set(expected)):
        got, want = records.get(name), expected.get(name)
        if got != want:
            bad += 1
            print(f"MISMATCH {name}: {', '.join(_changed_keys(got, want))}")
    print(f"{len(records) - bad} of {len(records)} cases match" if not bad else
          f"{bad} mismatched case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(main())
