"""Record the reference outputs the benchmark checks against.

    python benches/record.py

Writes benches/reference.json: summaries of every fringe profile and
design-study grid point the generators can draw, sha256 digests of the
seed-independent simulate CSVs and stdout, and the analytic Monte-Carlo
sigmas the seeded checks use. Run it only on a commit whose outputs are
known good; afterwards any change to an output byte or library number
shows as a failed op.
"""

import json
import re
import shutil
import sys

from common import REFERENCE, SRC, WORK, normalize_stdout, sha256_bytes, sha256_file

sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import inproc  # noqa: E402
from pendellosung.errors import PendellosungError  # noqa: E402

def cli_reference(argv, files) -> dict:
    out_dir = WORK / "record"
    shutil.rmtree(out_dir, ignore_errors=True)
    code, stdout = inproc.run_cli(argv, out_dir)
    if code != 0:
        raise SystemExit(f"{argv}: exit code {code}")
    return {"stdout": sha256_bytes(normalize_stdout(stdout, out_dir).encode()),
            "files": {name: sha256_file(out_dir / name) for name in files}}


def fringe_reference() -> dict:
    ref = {}
    for crystal, hkl in inputs.FRINGE_REFLECTIONS:
        for shape in inputs.SHAPES:
            for t in inputs.THICKNESSES_CM:
                for n in (inputs.FRINGE_SMALL, inputs.FRINGE_LARGE):
                    op = {"crystal": crystal, "hkl": hkl, "shape": shape,
                          "thickness_cm": t, "samples": n}
                    ref[inproc.fringe_key(op)] = inproc.fringe_summary(*inproc.fringe_profile(op))
    return ref


def design_reference() -> dict:
    ref = {}
    grid = [("Si", w) for w in inputs.SI_GRID] + [("Ge", w) for w in inputs.GE_GRID]
    for crystal, w in grid:
        op = {"crystal": crystal, "window": list(w), "fit_seeds": [0] if crystal == "Si" else []}
        out = inproc.design_point(op)
        fits = out.get("fits", [])
        ref[inproc.design_key(op)] = {
            "summary": inproc.design_summary(out),
            "fit_error": fits[0] if fits and isinstance(fits[0], str) else None,
        }
    return ref


def cli_reference_all() -> dict:
    ref = {"simulate_large": {}}
    for hkl in inputs.SI_CLEAN:
        for n in inputs.LARGE_SAMPLES:
            for shape in inputs.SHAPES:
                argv = ["simulate", hkl, "--samples", str(n), "--spectrum", shape]
                label = inproc.reflection(hkl).canonical().label()
                ref["simulate_large"][inproc.simulate_key(argv)] = cli_reference(
                    argv, [f"fringes_{label}.csv"])
    code, stdout = inproc.run_cli(["mc"], WORK / "record")
    ref["mc_analytic"] = {name: value for name, value in
                          re.findall(r"sigma\((\w+)\): analytic (\S+),", stdout)}
    return ref


def main() -> None:
    try:
        reference = {
            "fringe_scan": fringe_reference(),
            "design_study": design_reference(),
            "cli": cli_reference_all(),
        }
    except PendellosungError as exc:
        raise SystemExit(f"reference run failed: {exc}")
    finally:
        shutil.rmtree(WORK / "record", ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
