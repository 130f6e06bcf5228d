"""Seeded input generation for the three workloads.

Each generator returns one cycle: the list of ops a run repeats until its
time is up. The seed picks reflections, spectrum shapes, thicknesses,
noise seeds and the order of ops; it never changes which kinds of op a
cycle holds, their sizes, or which reference checks apply, so every seed
measures the same mix. Stdlib only, so tests and the launcher can use it
without importing the package under test.
"""

from __future__ import annotations

import random

# Silicon's nine clean reflections under the default thermal window.
SI_CLEAN = ("111", "422", "511", "531", "620", "533", "551", "711", "642")
FRINGE_REFLECTIONS = tuple(("Si", h) for h in SI_CLEAN) + (("Ge", "111"),)
SHAPES = ("flat", "maxwellian")
THICKNESSES_CM = (0.5, 1.0, 2.0)

# fringe_scan: 2000 samples keep a profile's arrays in cache, 2e5 samples
# (about 1.6 MB per array) leave the 2 MiB per-core L2. One op in five is
# large, so p50 falls inside the small group and p90 inside the large one.
FRINGE_SMALL, FRINGE_LARGE = 2000, 200_000
FRINGE_SMALL_PER_REFLECTION = 2
FRINGE_LARGE_PER_CYCLE = 5

# design_study: SpectrumWindow grid. Silicon points run the planner, the
# form factors, the error budgets and seeded fits; germanium's built-in
# table covers only (111), so its points run the planner alone. Si points
# with a 60 deg detector keep fewer than two clean reflections, so their
# fits and forward-less budgets fail with typed errors by design. Op cost
# grows with the detector range; 10 deg steps keep the cost distribution
# free of wide gaps, so p50 and p90 move smoothly with the host's speed.
LAMBDA_MIN = (0.7, 0.8, 0.9)
LAMBDA_MAX = (2.0, 2.5, 3.0)
TWO_THETA_MAX = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0)
SI_GRID = tuple((a, b, c) for a in LAMBDA_MIN for b in LAMBDA_MAX for c in TWO_THETA_MAX)
GE_GRID = tuple((0.8, b, c) for b in LAMBDA_MAX for c in TWO_THETA_MAX[1:])
FIT_SEEDS_PER_POINT = 3
BUDGET_CONFIGS = tuple((fwd, prop) for fwd in (True, False) for prop in (True, False))

# large_runs: sizes where the arrays leave L2. Five ops of distinct cost
# per cycle put p50 on the middle size and p90 on the largest.
LARGE_SAMPLES = (80_000, 100_000, 120_000)
LARGE_TRIALS = (500_000, 1_000_000)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _noise_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def fringe_scan(seed: int) -> list:
    rng = _rng("fringe_scan", seed)

    def op(crystal, hkl, samples):
        return {"kind": "small" if samples == FRINGE_SMALL else "large",
                "crystal": crystal, "hkl": hkl, "shape": rng.choice(SHAPES),
                "thickness_cm": rng.choice(THICKNESSES_CM), "samples": samples}

    ops = [op(c, h, FRINGE_SMALL) for c, h in FRINGE_REFLECTIONS
           for _ in range(FRINGE_SMALL_PER_REFLECTION)]
    ops += [op(c, h, FRINGE_LARGE)
            for c, h in rng.sample(FRINGE_REFLECTIONS, FRINGE_LARGE_PER_CYCLE)]
    rng.shuffle(ops)
    return ops


def design_study(seed: int) -> list:
    rng = _rng("design_study", seed)
    ops = [{"kind": "Si", "crystal": "Si", "window": list(w),
            "fit_seeds": [_noise_seed(rng) for _ in range(FIT_SEEDS_PER_POINT)]}
           for w in SI_GRID]
    ops += [{"kind": "Ge", "crystal": "Ge", "window": list(w), "fit_seeds": []}
            for w in GE_GRID]
    rng.shuffle(ops)
    return ops


def large_runs(seed: int) -> list:
    rng = _rng("large_runs", seed)
    ops = [{"kind": "simulate",
            "argv": ["simulate", rng.choice(SI_CLEAN), "--samples", str(n),
                     "--spectrum", rng.choice(SHAPES)]}
           for n in LARGE_SAMPLES]
    ops += [{"kind": "mc", "argv": ["mc", "--trials", str(n), "--seed", str(_noise_seed(rng))]}
            for n in LARGE_TRIALS]
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "fringe_scan": fringe_scan,
    "design_study": design_study,
    "large_runs": large_runs,
}


def _size(op):
    """What an op's cost grows with: samples, trials or the design window."""
    if "samples" in op:
        return op["samples"]
    if "window" in op:
        return op["window"]
    argv = op["argv"]
    flag = "--samples" if "--samples" in argv else "--trials"
    return int(argv[argv.index(flag) + 1])


def warmup(cycle: list) -> list:
    """The smallest op of each kind: fills lazy caches (such as the
    planner's survey verdicts) and warms code paths before timing. Every
    seed's cycle holds the same sizes, so set-up costs the same for all."""
    smallest = {}
    for op in cycle:
        kind = op["kind"]
        if kind not in smallest or _size(op) < _size(smallest[kind]):
            smallest[kind] = op
    return list(smallest.values())
