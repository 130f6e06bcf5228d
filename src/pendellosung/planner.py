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

Survey walk
-----------
candidates walks the integer triples h >= k >= l >= 0 up to the n^2 =
h^2 + k^2 + l^2 that the peak wavelength can reach. Mixed parity is
DISALLOWED (fcc extinction) for every crystal, so k and l step by two from
h's parity and the walk never visits those triples; the class rule still
drops the FORBIDDEN ones (h + k + l = 2 mod 4). n^2 grows with k and l, so
each inner loop stops at the first triple past the bound. The bound grows
as (a0 / lambda_peak)^2 and the walk as its 3/2 power, so a window whose
bound passes MAX_WALK_N_SQ is refused before the walk starts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import EmptyWindow, NoReflection, SurveyTooLarge, _positive, _real
from .lattice import (
    CrystalSpec,
    Reflection,
    ReflectionClass,
    _class_of,
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
    # sin(theta) at the detector limits, for _window, set from the angles
    _sin_min: float = field(init=False, repr=False, compare=False)
    _sin_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        peak, lam, angles = ("lambda_peak and lambda_max must be positive and finite",
                             "need 0 < lambda_min < lambda_max",
                             "need 0 <= two_theta_min < two_theta_max <= 180")
        for name, ok, message in (
                ("lambda_max", _positive, peak), ("lambda_peak", _positive, peak),
                ("lambda_min", lambda v: 0 < v < self.lambda_max, lam),
                ("two_theta_max", lambda v: v <= 180, angles),
                ("two_theta_min", lambda v: 0 <= v < self.two_theta_max, angles)):
            object.__setattr__(self, name, _real(getattr(self, name), ok, message))
        object.__setattr__(self, "_sin_min", math.sin(math.radians(self.two_theta_min / 2.0)))
        object.__setattr__(self, "_sin_max", math.sin(math.radians(self.two_theta_max / 2.0)))


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
    lam = _real(lam, _positive, "wavelength must be positive and finite")
    q = q_over_4pi(crystal, r)
    if q == 0.0:
        raise NoReflection("(000) has no Bragg angle")
    s = lam * q
    if s > 1.0:
        raise NoReflection(
            f"({r.label()}): sin(theta) = {s:.4g} > 1 at lambda = {lam:.4g} A"
        )
    return math.degrees(math.asin(s))


def _two_theta(q: float, lam: float) -> float:
    return 2.0 * math.degrees(math.asin(lam * q))


def _window(q: float, w: SpectrumWindow):
    """Intersect the spectrum with the detector range for a transfer q > 0.

    Returns ((lambda_lo, lambda_hi), (two_theta_lo, two_theta_hi)), or None
    when empty. An end set by the detector keeps its angle exactly (an
    asin(sin) round trip would miss 180 deg by 1.7e-6 deg); an end set by
    the spectrum is the Bragg angle of that wavelength.
    """
    lam_min, lam_max = w.lambda_min, w.lambda_max
    lam_lo, lam_hi = w._sin_min / q, w._sin_max / q
    # max(lam_min, lam_lo) and min(lam_max, lam_hi), as those builtins pick.
    lam_lo = lam_lo if lam_lo > lam_min else lam_min
    lam_hi = lam_hi if lam_hi < lam_max else lam_max
    if not lam_lo < lam_hi:
        return None
    tt_lo = w.two_theta_min if lam_lo > lam_min else _two_theta(q, lam_lo)
    tt_hi = w.two_theta_max if lam_hi < lam_max else _two_theta(q, lam_hi)
    return (lam_lo, lam_hi), (tt_lo, tt_hi)


def reflection_window(crystal: CrystalSpec, r: Reflection, w: SpectrumWindow):
    """Intersect the spectrum with the detector range for one reflection.

    Returns ((lambda_lo, lambda_hi), (two_theta_lo, two_theta_hi)); raises
    EmptyWindow when the reflection cannot be measured inside w.
    """
    return _reflection_window(q_over_4pi(crystal, r), r, w)


def _reflection_window(q: float, r: Reflection, w: SpectrumWindow):
    """reflection_window for r at its transfer q = q_over_4pi(crystal, r)."""
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
    q = q_over_4pi(crystal, r)
    fund = _window(q, w) if q > 0.0 else None
    if fund is None:
        return []
    lam_lo, lam_hi = fund[0]
    lam_min, lam_max = w.lambda_min, w.lambda_max
    q1 = q if m0 == 1 else q_over_4pi(crystal, prim)
    h, k, l = prim.h, prim.k, prim.l
    found = []
    for m in itertools.count(1):
        if m == m0:
            continue
        # Fundamental-wavelength band where both orders are in-spectrum:
        # lower orders reach it through the spectrum top, higher orders
        # through the spectrum floor. The first higher order past the
        # window top is kept as a margin warning.
        ratio = m / m0
        lo, hi = ratio * lam_min, ratio * lam_max
        lo = lo if lo > lam_lo else lam_lo  # max(lam_lo, lo)
        hi = hi if hi < lam_hi else lam_hi  # min(lam_hi, hi)
        margin = m > m0 and not lo < hi
        if (lo < hi or margin) and not _class_of(m * h, m * k, m * l).extinct:
            window = _window(m * q1, w)
            if window is not None:
                overlap = None if margin else (_two_theta(q, lo), _two_theta(q, hi))
                found.append(Contaminant(order=m, reflection=prim.scaled(m),
                                         two_theta_window=window[1], overlap=overlap))
        if margin:
            return found


# The survey walk refuses a window whose n^2 = h^2 + k^2 + l^2 bound is
# past this: about 24,000 triples to step through, where the walk's cost
# grows as (a0 / lambda_peak)^3.
MAX_WALK_N_SQ = 10_000


def candidates(crystal: CrystalSpec, w: SpectrumWindow = DEFAULT_WINDOW):
    """Canonical observable reflections reachable under the window.

    Reachable means: non-extinct class, a non-empty measurement window,
    and the peak-flux wavelength meeting the reflection inside the
    detector range (within PEAK_SLACK_DEG). A window that would walk past
    n^2 = MAX_WALK_N_SQ raises SurveyTooLarge before the walk starts.
    """
    tt_floor, tt_cap = w.two_theta_min - PEAK_SLACK_DEG, w.two_theta_max + PEAK_SLACK_DEG
    q_cap = math.sin(math.radians(tt_cap / 2.0)) / w.lambda_peak
    two_a0 = 2.0 * crystal.a0
    try:
        n_sq_cap = int((two_a0 * q_cap) ** 2)
    except OverflowError:  # a peak wavelength so short that n^2 is past the floats
        n_sq_cap = math.inf
    if n_sq_cap > MAX_WALK_N_SQ:
        raise SurveyTooLarge(
            f"{crystal.name}: lambda_peak = {w.lambda_peak:.4g} A with two_theta_max = "
            f"{w.two_theta_max:.4g} deg walks reflections up to h^2+k^2+l^2 = {n_sq_cap}, "
            f"past the survey's bound of {MAX_WALK_N_SQ}")
    peak = w.lambda_peak
    found = []
    # Integer triples first: a Reflection is built only for a non-empty
    # window. k and l share h's parity (see the module docstring), and n^2
    # rises with each index, so each loop ends at the first n^2 past the cap.
    for h in range(1, math.isqrt(n_sq_cap) + 1):
        for k in range(h % 2, h + 1, 2):
            hk_sq = h * h + k * k
            if hk_sq > n_sq_cap:
                break
            for l in range(h % 2, k + 1, 2):
                n_sq = hk_sq + l * l
                if n_sq > n_sq_cap:
                    break
                if _class_of(h, k, l).extinct:
                    continue
                q = math.sqrt(n_sq) / two_a0  # q_over_4pi
                if peak * q > 1.0 or _window(q, w) is None:
                    continue
                r = Reflection(h, k, l)
                if tt_floor <= 2.0 * bragg_angle(crystal, r, peak) <= tt_cap:
                    found.append((n_sq, h, k, l, r))
    found.sort()
    return [entry[-1] for entry in found]


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
    q = q_over_4pi(crystal, r)
    lam_win, tt_win = _reflection_window(q, r, w)
    cont = tuple(contamination(crystal, r, w))
    pure = _strict_pure(cont)
    note = ""
    if not strict:
        amended = _survey_verdicts(crystal).get((r.h, r.k, r.l))
        if amended is not None:
            pure, note = amended
    return ReflectionPlan(
        reflection=r, reflection_class=_class_of(r.h, r.k, r.l), q=q,
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
    # candidates come in (n^2, h, k, l) order, and q rises strictly with n^2.
    plans = [plan_reflection(crystal, r, w, strict=strict) for r in candidates(crystal, w)]
    return SurveyResult(plans=tuple(plans))

