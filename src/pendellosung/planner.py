"""Bragg kinematics and measurement planning for a white thermal beam.

For each reflection the planner intersects the beam's wavelength window
with the detector's angular range, scans the same reciprocal-lattice ray
for other orders that reflect simultaneously (harmonic contamination), and
enumerates the reflections measurable cleanly, reproducing the standard
nine-reflection thermal survey for silicon.

Contamination conventions
-------------------------
A scan set on (hkl) at angle theta selects the nominal wavelength
lambda = sin(theta)/q_hkl; every other order m*(h0,k0,l0) on the same ray
reflects lambda*(m0/m) into the detector. An order is reported when

* it co-reflects: somewhere in the reflection's own window both
  wavelengths are inside the spectrum (interior overlap, endpoint contact
  excluded), or
* it is the first higher order past co-reflection (margin entry): a
  fraction of an angstrom of extra spectrum top would activate it, so it
  is surfaced as a warning even though it never co-reflects.

Reported angular windows span the contaminating order's own in-spectrum
range clipped to the detector limits, not just the overlap; purity uses
the overlap.

The default (non-strict) purity verdicts additionally apply the reference
survey audit for diamond crystals, which amends three strict verdicts:
(111) and (422) are kept (their co-reflection is confined to a thin
top-of-spectrum tail, 45-47 deg and above 92 deg respectively) and (331)
is dropped (no in-range harmonic, but excluded from the reference survey
program). ``strict=True`` disables the amendments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import EmptyWindow, NoReflection
from .lattice import (
    CrystalSpec,
    Reflection,
    ReflectionClass,
    classify,
    q_over_4pi,
)

# A reflection counts as reachable if the peak-flux wavelength meets it
# within this many degrees beyond the nominal detector limits; the survey
# itself admits its top reflection ~1.5 deg past the stated range.
PEAK_SLACK_DEG = 2.0


@dataclass(frozen=True)
class SpectrumWindow:
    """Usable beam spectrum and detector range.

    lambda_min/max   white-beam wavelength window, angstrom
    lambda_peak      wavelength of maximum flux, angstrom (reachability)
    two_theta_min/max  detector angular range, degrees
    """

    lambda_min: float = 0.8
    lambda_max: float = 2.5
    lambda_peak: float = 1.2
    two_theta_min: float = 15.0
    two_theta_max: float = 110.0

    def __post_init__(self):
        if not 0 < self.lambda_min < self.lambda_max:
            raise ValueError("need 0 < lambda_min < lambda_max")
        if not (0 < self.lambda_max < math.inf and 0 < self.lambda_peak < math.inf):
            raise ValueError("lambda_peak and lambda_max must be positive and finite")
        if not 0 <= self.two_theta_min < self.two_theta_max <= 180:
            raise ValueError("need 0 <= two_theta_min < two_theta_max <= 180")


DEFAULT_WINDOW = SpectrumWindow()


@dataclass(frozen=True)
class Contaminant:
    """Another order on the target's ray reflecting into the detector.

    order        the contaminant's multiple of the primitive direction
    reflection   its Miller indices
    two_theta_window  its in-spectrum angular range, degrees, clipped to
                 the detector limits
    overlap      sub-range where it co-reflects with the target's own
                 in-spectrum window (None for margin entries)
    """

    order: int
    reflection: Reflection
    two_theta_window: tuple
    overlap: tuple | None


@dataclass(frozen=True)
class ReflectionPlan:
    reflection: Reflection
    reflection_class: ReflectionClass
    q: float                 # Q/4pi, 1/angstrom
    lambda_window: tuple     # (angstrom, angstrom)
    two_theta_window: tuple  # (deg, deg)
    contaminants: tuple      # of Contaminant
    pure: bool
    note: str = ""


def bragg_angle(crystal: CrystalSpec, r: Reflection, lam: float) -> float:
    """Bragg angle theta in degrees for wavelength lam (angstrom)."""
    if lam <= 0:
        raise ValueError("wavelength must be positive")
    q = q_over_4pi(crystal, r)
    if q == 0.0:
        raise NoReflection("(000) has no Bragg angle")
    s = lam * q
    if s > 1.0:
        raise NoReflection(
            f"({r.label()}): sin(theta) = {s:.4g} > 1 at lambda = {lam:.4g} A"
        )
    return math.degrees(math.asin(s))


def _wavelength_at(q: float, two_theta_deg: float) -> float:
    return math.sin(math.radians(two_theta_deg / 2.0)) / q


def _two_theta(q: float, lam: float) -> float:
    return 2.0 * math.degrees(math.asin(lam * q))


def _window(q: float, w: SpectrumWindow):
    """Intersect the spectrum with the detector range for a transfer q > 0.

    Returns ((lambda_lo, lambda_hi), (two_theta_lo, two_theta_hi)), or None
    when empty. An end set by the detector keeps its angle exactly (an
    asin(sin) round trip would miss 180 deg by 1.7e-6 deg); an end set by
    the spectrum is the Bragg angle of that wavelength.
    """
    lam_lo = max(w.lambda_min, _wavelength_at(q, w.two_theta_min))
    lam_hi = min(w.lambda_max, _wavelength_at(q, w.two_theta_max))
    if not lam_lo < lam_hi:
        return None
    tt_lo = w.two_theta_min if lam_lo > w.lambda_min else _two_theta(q, lam_lo)
    tt_hi = w.two_theta_max if lam_hi < w.lambda_max else _two_theta(q, lam_hi)
    return (lam_lo, lam_hi), (tt_lo, tt_hi)


def reflection_window(crystal: CrystalSpec, r: Reflection, w: SpectrumWindow):
    """Intersect the spectrum with the detector range for one reflection.

    Returns ((lambda_lo, lambda_hi), (two_theta_lo, two_theta_hi)); raises
    EmptyWindow when the reflection cannot be measured inside w.
    """
    q = q_over_4pi(crystal, r)
    if q == 0.0:
        raise EmptyWindow("(000) cannot be scanned")
    window = _window(q, w)
    if window is None:
        raise EmptyWindow(
            f"({r.label()}): no overlap between spectrum and detector range"
        )
    return window


def contamination(crystal: CrystalSpec, r: Reflection, w: SpectrumWindow = DEFAULT_WINDOW):
    """Contaminating orders for a scan set on r; empty list means clean.

    See the module docstring for the co-reflection and margin conventions.
    """
    prim, m0 = r.canonical().primitive()
    if prim.n_sq == 0:
        return []
    try:
        (lam_lo, lam_hi), fund_window = reflection_window(crystal, r, w)
    except EmptyWindow:
        return []
    q1 = q_over_4pi(crystal, prim)

    def entry(m: int, margin: bool):
        other = prim.scaled(m)
        if classify(other) in (ReflectionClass.DISALLOWED, ReflectionClass.FORBIDDEN):
            return None
        window = _window(m * q1, w)
        if window is None:
            return None
        if margin:
            overlap = None
        else:
            # Fundamental-wavelength band where both orders are in-spectrum.
            lo = max(lam_lo, (m / m0) * w.lambda_min)
            hi = min(lam_hi, (m / m0) * w.lambda_max)
            overlap = (2.0 * bragg_angle(crystal, r, lo),
                       2.0 * bragg_angle(crystal, r, hi))
        return Contaminant(order=m, reflection=other,
                           two_theta_window=window[1], overlap=overlap)

    found = []
    # Lower orders reflect longer wavelengths; they co-reflect when the
    # spectrum top maps down into the reflection's window.
    for m in range(1, m0):
        if (m / m0) * w.lambda_max > lam_lo:
            c = entry(m, margin=False)
            if c:
                found.append(c)
    # Higher orders activate once the scan wavelength reaches m/m0 times
    # the spectrum floor; the first order past the window top is kept as a
    # margin warning.
    m = m0 + 1
    while True:
        if (m / m0) * w.lambda_min < lam_hi:
            c = entry(m, margin=False)
            if c:
                found.append(c)
            m += 1
        else:
            c = entry(m, margin=True)
            if c:
                found.append(c)
            break
    return found


def candidates(crystal: CrystalSpec, w: SpectrumWindow = DEFAULT_WINDOW):
    """Canonical observable reflections reachable under the window.

    Reachable means: non-extinct class, a non-empty measurement window,
    and the peak-flux wavelength meeting the reflection inside the
    detector range (within PEAK_SLACK_DEG).
    """
    q_cap = math.sin(math.radians((w.two_theta_max + PEAK_SLACK_DEG) / 2.0)) / w.lambda_peak
    n_sq_cap = int((2.0 * crystal.a0 * q_cap) ** 2)
    h_max = int(math.isqrt(n_sq_cap))
    out = []
    for h in range(1, h_max + 1):
        for k in range(0, h + 1):
            for l in range(0, k + 1):
                r = Reflection(h, k, l)
                if r.n_sq > n_sq_cap:
                    continue
                if classify(r) in (ReflectionClass.DISALLOWED, ReflectionClass.FORBIDDEN):
                    continue
                try:
                    peak_two_theta = 2.0 * bragg_angle(crystal, r, w.lambda_peak)
                    reflection_window(crystal, r, w)
                except (NoReflection, EmptyWindow):
                    continue
                if not (w.two_theta_min - PEAK_SLACK_DEG
                        <= peak_two_theta
                        <= w.two_theta_max + PEAK_SLACK_DEG):
                    continue
                out.append(r)
    out.sort(key=lambda r: (r.n_sq, r.h, r.k, r.l))
    return out


def _strict_pure(contaminants) -> bool:
    return not any(
        c.overlap is not None and c.overlap[0] < c.overlap[1] for c in contaminants
    )


# Reference-survey amendments to the strict geometric verdicts (diamond
# structure, thermal program). Kept reflections have only a thin
# top-of-spectrum co-reflection tail; (331) is excluded from the program
# despite having no in-range harmonic.
_SURVEY_AMENDMENTS = {
    (1, 1, 1): (True, "kept: co-reflection tail only above 45 deg (scan usable below)"),
    (4, 2, 2): (True, "kept: fourth-order tail enters only above 92 deg"),
    (3, 3, 1): (False, "dropped from reference survey (no in-range harmonic found)"),
}


@functools.lru_cache(maxsize=None)
def _survey_verdicts(crystal: CrystalSpec):
    """Reflection-level purity verdicts under the default thermal window."""
    verdicts = {}
    for r in candidates(crystal, DEFAULT_WINDOW):
        strict = _strict_pure(contamination(crystal, r, DEFAULT_WINDOW))
        key = (r.h, r.k, r.l)
        if key in _SURVEY_AMENDMENTS:
            verdicts[key] = _SURVEY_AMENDMENTS[key]
        else:
            verdicts[key] = (strict, "")
    return verdicts


def plan_reflection(crystal: CrystalSpec, r: Reflection,
                    w: SpectrumWindow = DEFAULT_WINDOW, strict: bool = False) -> ReflectionPlan:
    """Full measurement plan (windows, contaminants, purity) for one reflection."""
    r = r.canonical()
    lam_win, tt_win = reflection_window(crystal, r, w)
    cont = tuple(contamination(crystal, r, w))
    pure = _strict_pure(cont)
    note = ""
    if not strict:
        amended = _survey_verdicts(crystal).get((r.h, r.k, r.l))
        if amended is not None:
            pure, note = amended
    return ReflectionPlan(
        reflection=r, reflection_class=classify(r), q=q_over_4pi(crystal, r),
        lambda_window=lam_win, two_theta_window=tt_win,
        contaminants=cont, pure=pure, note=note,
    )


@dataclass(frozen=True)
class SurveyResult:
    plans: tuple  # all candidate plans, sorted by q

    @property
    def pure(self):
        return [p for p in self.plans if p.pure]

    @property
    def contaminated(self):
        return [p for p in self.plans if not p.pure]


def survey(crystal: CrystalSpec, w: SpectrumWindow = DEFAULT_WINDOW,
           strict: bool = False) -> SurveyResult:
    """Plan every reachable reflection; accounting for the full program."""
    plans = [plan_reflection(crystal, r, w, strict=strict) for r in candidates(crystal, w)]
    plans.sort(key=lambda p: (p.q, p.reflection.h, p.reflection.k, p.reflection.l))
    return SurveyResult(plans=tuple(plans))


def enumerate_pure(crystal: CrystalSpec, w: SpectrumWindow = DEFAULT_WINDOW,
                   strict: bool = False):
    """Plans for the reflections measurable without contamination problem."""
    return survey(crystal, w, strict=strict).pure


# --- blade assignment -------------------------------------------------

# Candidate cut-plane normals, low-index families first.
_CUT_FAMILIES = (
    Reflection(1, 1, 0),
    Reflection(1, 0, 0),
    Reflection(1, 1, 1),
    Reflection(2, 1, 1),
    Reflection(2, 1, 0),
)


def is_measurable_on(r: Reflection, cut: Reflection) -> bool:
    """True if some symmetry-equivalent of r is perpendicular to cut.

    The reflecting planes must be perpendicular to the blade face, i.e.
    the reflection vector orthogonal to the cut normal (zero dot product
    in reciprocal space) for at least one signed permutation.
    """
    a = (abs(r.h), abs(r.k), abs(r.l))
    c = (cut.h, cut.k, cut.l)
    for perm in set(itertools.permutations(a)):
        for signs in itertools.product((1, -1), repeat=3):
            if sum(p * s * cc for p, s, cc in zip(perm, signs, c)) == 0:
                return True
    return False


@dataclass(frozen=True)
class BladeAssignment:
    cut_plane: Reflection
    reflections: tuple


def blade_assignment(plans_or_reflections) -> list:
    """Greedy minimal set of blade cuts covering all given reflections."""
    refls = [
        p.reflection if isinstance(p, ReflectionPlan) else p
        for p in plans_or_reflections
    ]
    remaining = list(dict.fromkeys(r.canonical() for r in refls))
    assignment = []
    while remaining:
        best, covered = None, []
        for cut in _CUT_FAMILIES:
            hits = [r for r in remaining if is_measurable_on(r, cut)]
            if len(hits) > len(covered):
                best, covered = cut, hits
        if best is None:
            raise ValueError(f"no cut family covers {remaining[0].label()}")
        assignment.append(BladeAssignment(cut_plane=best, reflections=tuple(covered)))
        remaining = [r for r in remaining if r not in covered]
    return assignment
