import hashlib
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from pendellosung import (
    GERMANIUM,
    SILICON,
    EmptyWindow,
    NoReflection,
    Reflection,
    ReflectionClass,
    SpectrumWindow,
    SurveyTooLarge,
    bragg_angle,
    candidates,
    contamination,
    reflection_window,
    survey,
)
from pendellosung import planner
from pendellosung.planner import DEFAULT_WINDOW, PEAK_SLACK_DEG, _window

from oracles import candidates_per_triple, contamination_per_order

# The nine-reflection thermal survey for silicon: label -> (f, lambda
# window, two-theta window, class); windows as published, integer degrees
# and 0.1 A steps.
SURVEY_ROWS = {
    "111": (0.7526, (0.8, 2.5), (15, 47), ReflectionClass.WEAK),
    "422": (0.4788, (0.8, 1.8), (42, 110), ReflectionClass.STRONG),
    "511": (0.4600, (0.8, 1.7), (45, 110), ReflectionClass.WEAK),
    "531": (0.4150, (0.8, 1.5), (52, 110), ReflectionClass.WEAK),
    "620": (0.3902, (0.8, 1.4), (56, 110), ReflectionClass.STRONG),
    "533": (0.3764, (0.8, 1.4), (58, 110), ReflectionClass.WEAK),
    "551": (0.3432, (0.8, 1.2), (63, 110), ReflectionClass.WEAK),
    "711": (0.3432, (0.8, 1.2), (63, 110), ReflectionClass.WEAK),
    "642": (0.3249, (0.8, 1.2), (67, 112), ReflectionClass.STRONG),
}


class TestBraggAngle:
    def test_si_111_at_2p4(self):
        # sin(theta) = 2.3996 sqrt(3) / (2 * 5.43072) -> 2theta = 45 deg
        theta = bragg_angle(SILICON, Reflection(1, 1, 1), 2.3996)
        assert 2 * theta == pytest.approx(45.0, abs=0.02)

    def test_si_111_at_0p8(self):
        theta = bragg_angle(SILICON, Reflection(1, 1, 1), 0.8)
        assert 2 * theta == pytest.approx(14.66, abs=0.05)

    def test_unreachable(self):
        with pytest.raises(NoReflection):
            bragg_angle(SILICON, Reflection(1, 1, 1), 7.0)
        with pytest.raises(NoReflection):
            bragg_angle(SILICON, Reflection(0, 0, 0), 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            bragg_angle(SILICON, Reflection(1, 1, 1), -1.0)

    @pytest.mark.parametrize("lam", [0.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_zero_wavelength(self, lam):
        # nan fails no comparison, so lam <= 0 alone lets it through.
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            bragg_angle(SILICON, Reflection(1, 1, 1), lam)


class TestReflectionWindow:
    def test_si_422_defaults(self, default_window):
        (l_lo, l_hi), (t_lo, t_hi) = reflection_window(SILICON, Reflection(4, 2, 2), default_window)
        assert l_lo == pytest.approx(0.8, abs=1e-12)
        assert l_hi == pytest.approx(1.816, abs=0.001)
        assert t_lo == pytest.approx(42.3, abs=0.05)
        assert t_hi == pytest.approx(110.0, abs=1e-9)

    def test_endpoints_consistent(self, default_window):
        # Mapping the lambda endpoints through the Bragg relation must
        # reproduce the angular endpoints for every surveyed reflection.
        for plan in survey(SILICON, default_window).plans:
            lam_lo, lam_hi = plan.lambda_window
            t_lo, t_hi = plan.two_theta_window
            assert 2 * bragg_angle(SILICON, plan.reflection, lam_lo) == pytest.approx(t_lo, abs=1e-9)
            assert 2 * bragg_angle(SILICON, plan.reflection, lam_hi) == pytest.approx(t_hi, abs=1e-9)

    def test_degenerate_window(self):
        # (642) needs lambda below 1.19 A; a 1.3 A floor empties its window.
        with pytest.raises(EmptyWindow):
            reflection_window(SILICON, Reflection(6, 4, 2),
                              SpectrumWindow(lambda_min=1.3, lambda_max=2.5))
        # (111) pushed entirely below the detector floor.
        with pytest.raises(EmptyWindow):
            reflection_window(SILICON, Reflection(1, 1, 1),
                              SpectrumWindow(two_theta_min=50, two_theta_max=51))
        # (000) is the forward beam, at no angle.
        with pytest.raises(EmptyWindow, match=r"^\(000\) cannot be scanned$"):
            reflection_window(SILICON, Reflection(0, 0, 0), SpectrumWindow())

    def test_stored_sines_are_not_fields(self):
        # The detector sines _window divides by q are stored on the window
        # but stay out of repr, ==, hash, replace and pickle.
        w = SpectrumWindow(lambda_min=0.5, lambda_max=2.0, two_theta_max=90.0)
        assert repr(w) == ("SpectrumWindow(lambda_min=0.5, lambda_max=2.0, lambda_peak=1.2, "
                           "two_theta_min=15.0, two_theta_max=90.0)")
        twin = SpectrumWindow(0.5, 2.0, 1.2, 15.0, 90.0)
        assert w == twin and hash(w) == hash(twin)
        assert w.__getstate__() == {"lambda_min": 0.5, "lambda_max": 2.0, "lambda_peak": 1.2,
                                    "two_theta_min": 15.0, "two_theta_max": 90.0}
        back = pickle.loads(pickle.dumps(w))
        assert back == w and vars(back) == vars(w)
        for changes in ({}, {"two_theta_min": 30.0}, {"two_theta_max": 180.0},
                        {"two_theta_min": 0.0, "lambda_peak": 0.9}):
            moved, fresh = replace(w, **changes), SpectrumWindow(**{**w.__getstate__(), **changes})
            assert moved == fresh and vars(moved) == vars(fresh)
            for q in (0.05, 0.16, 0.45, 0.69, 1.3):
                assert _window(q, moved) == _window(q, fresh)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SpectrumWindow(lambda_min=2.5, lambda_max=0.8)
        with pytest.raises(ValueError):
            SpectrumWindow(lambda_min=0.8, lambda_max=0.8)
        with pytest.raises(ValueError):
            SpectrumWindow(two_theta_min=120, two_theta_max=110)


class TestContamination:
    def test_si_111_defaults(self, default_window):
        found = contamination(SILICON, Reflection(1, 1, 1), default_window)
        by_label = {c.reflection.label(): c for c in found}
        assert set(by_label) == {"333", "444"}
        lo, hi = by_label["333"].two_theta_window
        assert lo == pytest.approx(45.0, abs=1.0)
        assert hi == pytest.approx(110.0, abs=1e-9)
        lo, hi = by_label["444"].two_theta_window
        assert lo == pytest.approx(61.0, abs=1.0)
        assert hi == pytest.approx(110.0, abs=1e-9)
        assert by_label["333"].order == 3
        assert by_label["444"].order == 4

    def test_si_111_narrow_spectrum_clean(self):
        # With the spectrum topping out at 1.6 A the second order is only
        # reached at the very edge and the third needs lambda >= 2.4.
        w = SpectrumWindow(lambda_max=1.6)
        assert contamination(SILICON, Reflection(1, 1, 1), w) == []

    def test_strictly_clean_survey_members(self, default_window):
        for label in ("511", "531", "620", "533", "551", "711", "642"):
            r = Reflection(*(int(c) for c in label))
            assert contamination(SILICON, r, default_window) == []

    def test_si_422_second_order_tail(self, default_window):
        # The fourth order (844) co-reflects above ~92 deg; the survey
        # amendment keeps (422) usable below that tail.
        found = contamination(SILICON, Reflection(4, 2, 2), default_window)
        assert [c.reflection.label() for c in found] == ["844"]
        lo, hi = found[0].two_theta_window
        assert lo == pytest.approx(92.4, abs=0.1)
        assert hi == pytest.approx(110.0, abs=1e-9)

    def test_dense_wavelength_scan_confirms_purity(self, default_window, pure_plans):
        # For strictly clean plans, no other order on the ray is
        # in-spectrum at any scanned wavelength (1e-3 A steps).
        import numpy as np

        for plan in pure_plans:
            if plan.note:
                continue  # amended verdicts carry a documented tail
            prim, m0 = plan.reflection.primitive()
            lam = np.arange(plan.lambda_window[0], plan.lambda_window[1], 1e-3)
            for m in range(1, 30):
                if m == m0:
                    continue
                other = prim.scaled(m)
                from pendellosung import classify

                if classify(other) in (ReflectionClass.DISALLOWED, ReflectionClass.FORBIDDEN):
                    continue
                lam_other = lam * (m0 / m)
                inside = (lam_other > default_window.lambda_min) & (
                    lam_other < default_window.lambda_max)
                assert not inside.any(), (plan.reflection, other)


class TestCandidates:
    def test_sixteen_for_si_defaults(self, default_window):
        c = candidates(SILICON, default_window)
        assert len(c) == 16
        labels = [r.label() for r in c]
        assert labels[0] == "111" and labels[-1] == "642"

    def test_all_allowed_classes(self, default_window):
        from pendellosung import classify

        for r in candidates(SILICON, default_window):
            assert classify(r) in (ReflectionClass.WEAK, ReflectionClass.STRONG)
            assert r == r.canonical()


class TestEnumeratePure:
    def test_nine_survey_reflections(self, pure_plans):
        labels = [p.reflection.label() for p in pure_plans]
        assert labels == ["111", "422", "511", "531", "620", "533", "551", "711", "642"]

    def test_classes(self, pure_plans):
        strong = {p.reflection.label() for p in pure_plans
                  if p.reflection_class is ReflectionClass.STRONG}
        assert strong == {"422", "620", "642"}

    def test_accounting(self, default_window):
        result = survey(SILICON, default_window)
        assert len(result.plans) == 16
        assert len(result.pure) == 9
        assert len(result.contaminated) == 7
        assert {p.reflection.label() for p in result.contaminated} == {
            "220", "311", "331", "333", "400", "440", "444"}

    def test_windows_match_survey(self, pure_plans):
        for p in pure_plans:
            f, (l_lo, l_hi), (t_lo, t_hi), cls = SURVEY_ROWS[p.reflection.label()]
            assert p.reflection_class is cls
            assert p.lambda_window[0] == pytest.approx(l_lo, abs=0.05)
            assert p.lambda_window[1] == pytest.approx(l_hi, abs=0.05)
            assert p.two_theta_window[0] == pytest.approx(t_lo, abs=1.0)
            # (642) published top angle exceeds the detector cap; compare
            # against the capped value.
            assert p.two_theta_window[1] == pytest.approx(min(t_hi, 110), abs=1.0)

    def test_strict_mode_differs_documented(self, default_window):
        strict = {p.reflection.label() for p in survey(SILICON, default_window, strict=True).pure}
        default = {p.reflection.label() for p in survey(SILICON, default_window).pure}
        assert default - strict == {"111", "422"}
        assert strict - default == {"331"}

    def test_narrow_detector_keeps_only_111(self):
        w = SpectrumWindow(two_theta_max=45.0)
        labels = [p.reflection.label() for p in survey(SILICON, w).pure]
        assert labels == ["111"]

    def test_order_independent_of_generation(self, default_window):
        a = [p.reflection for p in survey(SILICON, default_window).plans]
        b = sorted(a, key=lambda r: (r.n_sq, r.h, r.k, r.l))
        assert a == b


# Non-default windows for the strict-survey digest: wide and narrow
# spectra, detector floors from 0 deg and ceilings up to 180 deg.
DIGEST_WINDOWS = (
    SpectrumWindow(lambda_min=0.5, lambda_max=3.0, lambda_peak=1.0,
                   two_theta_min=5.0, two_theta_max=150.0),
    SpectrumWindow(lambda_min=0.3, lambda_max=4.0, lambda_peak=1.8,
                   two_theta_min=0.0, two_theta_max=180.0),
    SpectrumWindow(lambda_min=1.0, lambda_max=1.6, lambda_peak=0.9,
                   two_theta_min=30.0, two_theta_max=60.0),
    SpectrumWindow(lambda_min=0.7, lambda_max=2.2, lambda_peak=1.4,
                   two_theta_min=10.0, two_theta_max=90.0),
)

# sha256 of _canonical_dump over DIGEST_WINDOWS, strict verdicts only.
STRICT_SURVEY_SHA256 = {
    "Si": "106b203a9f416fbe070010a061d2a126cb96a6f7b884ba9f4650ca9451ca7169",
    "Ge": "71f5ab5df2bec92a0fce85922378955088d87ad3b8b05fedebd15df87962a70d",
}


def _canonical_dump(result) -> str:
    """Every field of every plan and contaminant; floats by repr, so exact."""
    lines = []
    for p in result.plans:
        lines.append(f"{p.reflection.label()} {p.reflection_class} {p.q!r} "
                     f"{p.lambda_window!r} {p.two_theta_window!r} {p.pure} {p.note!r}")
        lines += [f"  {c.order} {c.reflection.label()} {c.two_theta_window!r} {c.overlap!r}"
                  for c in p.contaminants]
    return "\n".join(lines) + "\n"


class TestStrictSurveyDigest:
    @pytest.mark.parametrize("crystal", [SILICON, GERMANIUM], ids=lambda c: c.name)
    def test_strict_survey_bytes(self, crystal):
        dump = "".join(_canonical_dump(survey(crystal, w, strict=True))
                       for w in DIGEST_WINDOWS)
        digest = hashlib.sha256(dump.encode()).hexdigest()
        assert digest == STRICT_SURVEY_SHA256[crystal.name]


class TestEmptyResultsAndSkips:
    def test_contamination_of_000_is_empty(self, default_window):
        assert contamination(SILICON, Reflection(0, 0, 0), default_window) == []

    def test_contamination_outside_window_is_empty(self):
        # (111) cannot be scanned in a 50-51 deg detector range.
        w = SpectrumWindow(two_theta_min=50, two_theta_max=51)
        assert contamination(SILICON, Reflection(1, 1, 1), w) == []

    def test_candidates_skip_an_empty_window(self):
        # The 0.9 A peak meets (642) at 77 deg, but the 1.3 A spectrum
        # floor already needs 127 deg, past the 110 deg detector top.
        w = SpectrumWindow(lambda_min=1.3, lambda_max=2.5, lambda_peak=0.9)
        r = Reflection(6, 4, 2)
        assert 2 * bragg_angle(SILICON, r, w.lambda_peak) == pytest.approx(76.6, abs=0.1)
        with pytest.raises(EmptyWindow):
            reflection_window(SILICON, r, w)
        assert r not in candidates(SILICON, w)

    def test_candidates_skip_a_peak_below_the_detector(self):
        # (111) has a window at a 40 deg floor, but the 1.2 A peak meets it
        # at 22 deg, below 40 - PEAK_SLACK_DEG.
        w = SpectrumWindow(two_theta_min=40.0)
        r = Reflection(1, 1, 1)
        reflection_window(SILICON, r, w)
        assert 2 * bragg_angle(SILICON, r, w.lambda_peak) < w.two_theta_min - PEAK_SLACK_DEG
        assert r not in candidates(SILICON, w)


class TestSurveyCallStructure:
    """The public calls a survey makes, counted through the module
    attributes they are looked up by, as a tracer binds its spans."""

    COUNTED = ("candidates", "plan_reflection", "contamination", "bragg_angle")

    @pytest.mark.parametrize("strict", [False, True], ids=["amended", "strict"])
    @pytest.mark.parametrize("crystal, w", [
        (SILICON, DEFAULT_WINDOW),
        (SILICON, SpectrumWindow(lambda_min=0.5, lambda_max=2.0, two_theta_max=90.0)),
        (GERMANIUM, SpectrumWindow(lambda_min=0.6, lambda_max=3.0, two_theta_max=150.0)),
    ], ids=["si-default", "si-narrow", "ge-wide"])
    def test_one_pass_per_plan(self, monkeypatch, crystal, w, strict):
        calls = dict.fromkeys(self.COUNTED, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # The amended verdicts come from a per-crystal table built by the
        # first survey, with its own calls; build it before counting.
        planner.survey(crystal, w, strict=strict)
        for name in self.COUNTED:
            monkeypatch.setattr(planner, name, counted(name, getattr(planner, name)))
        plans = planner.survey(crystal, w, strict=strict).plans
        assert plans
        assert calls == {"candidates": 1, "plan_reflection": len(plans),
                         "contamination": len(plans), "bragg_angle": len(plans)}


@st.composite
def windows(draw):
    """Any valid window: spectrum and peak in 0.2-5 A, detector in 0-180 deg."""
    lam = st.floats(0.2, 5.0)
    lam_lo, lam_hi = sorted(draw(st.lists(lam, min_size=2, max_size=2, unique=True)))
    tt_lo, tt_hi = sorted(draw(st.lists(st.floats(0.0, 180.0), min_size=2, max_size=2,
                                        unique=True)))
    return SpectrumWindow(lambda_min=lam_lo, lambda_max=lam_hi, lambda_peak=draw(lam),
                          two_theta_min=tt_lo, two_theta_max=tt_hi)


class TestIntegerWalkMatchesFrozenSurvey:
    """candidates and contamination walk integer triples and orders; the
    frozen copies build a Reflection for each. Results agree exactly."""

    # Off-candidate scans: sign and order permutations, higher orders.
    EXTRA = [Reflection(-1, 1, -1), Reflection(2, 4, -2), Reflection(0, 0, 4),
             Reflection(-3, -3, -3), Reflection(4, 4, 0), Reflection(0, 0, 0)]

    @pytest.mark.parametrize("crystal", [SILICON, GERMANIUM], ids=lambda c: c.name)
    @settings(max_examples=60, deadline=None)
    @given(w=windows())
    @example(w=SpectrumWindow())
    @example(w=SpectrumWindow(lambda_min=0.2, lambda_max=5.0, lambda_peak=0.5,
                              two_theta_min=0.0, two_theta_max=180.0))
    def test_random_windows(self, crystal, w):
        refls = candidates(crystal, w)
        assert repr(refls) == repr(candidates_per_triple(crystal, w))
        for r in refls + self.EXTRA:
            assert repr(contamination(crystal, r, w)) == repr(
                contamination_per_order(crystal, r, w))


class TestSurveyWalkCap:
    """candidates refuses a window whose n^2 bound passes MAX_WALK_N_SQ
    before it walks a single triple."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(planner, "_class_of", walked)
        monkeypatch.setattr(planner, "bragg_angle", walked)

    # Si under the default detector: lambda_peak 0.1 A reaches n^2 = 8108,
    # 0.09 A reaches 10010.
    @pytest.mark.parametrize("peak", [0.09, 0.01, 1e-6, 1e-300])
    def test_refused_without_walking(self, no_walk, peak):
        w = SpectrumWindow(lambda_peak=peak)
        with pytest.raises(SurveyTooLarge, match=r"^Si: lambda_peak = .* past the survey's "
                                                 r"bound of 10000$"):
            candidates(SILICON, w)
        with pytest.raises(SurveyTooLarge):
            survey(SILICON, w)

    def test_walks_up_to_the_cap(self):
        assert planner.MAX_WALK_N_SQ == 10_000
        w = SpectrumWindow(lambda_peak=0.1)
        assert repr(candidates(SILICON, w)) == repr(candidates_per_triple(SILICON, w))


def _amended_by_key(strict_plans):
    """The strict plans with only the _SURVEY_AMENDMENTS keys overridden."""
    out = []
    for p in strict_plans:
        amended = planner._SURVEY_AMENDMENTS.get((p.reflection.h, p.reflection.k, p.reflection.l))
        out.append(p if amended is None else replace(p, pure=amended[0], note=amended[1]))
    return tuple(out)


class TestAmendedSurveyOverridesOnlyItsKeys:
    """The amended survey should be the strict survey with the three
    reference-survey amendments applied by key. Today the amended verdicts
    come from a table built under DEFAULT_WINDOW, which replaces the strict
    verdict of every default-window candidate under any window, so Si (620)
    under lambda 0.5-2.0 A and 2theta <= 90 deg comes out pure with no note
    while its strict plan finds a co-reflecting order."""

    @pytest.mark.xfail(strict=True, reason="amended verdicts come from the default window")
    @pytest.mark.parametrize("crystal", [SILICON, GERMANIUM], ids=lambda c: c.name)
    @settings(max_examples=30, deadline=None)
    @given(w=windows())
    @example(w=SpectrumWindow(lambda_min=0.5, lambda_max=2.0, two_theta_max=90.0))
    def test_random_windows(self, crystal, w):
        assert survey(crystal, w).plans == _amended_by_key(survey(crystal, w, strict=True).plans)
