import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pendellosung import (
    GERMANIUM,
    SILICON,
    BeamSpectrum,
    BladeGeometry,
    ForbiddenReflection,
    NoReflection,
    Reflection,
    SpectrumWindow,
    bessel_j0,
    fringe_count,
    fringes,
    intensity_profile,
    pendellosung_argument,
    q_over_4pi,
    scattering_model,
    structure_factor_magnitude,
    survey,
)
from pendellosung.constants import ANGSTROM_PER_CM, ANGSTROM_PER_FM
from pendellosung.planner import reflection_window

from oracles import j0_oracle, j0_zero, j0_zeros_between


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        z1 = j0_zero(1)
        assert z1 == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j0(z1)) < 1e-9

    def test_at_five(self):
        # 60-term series oracle value
        assert bessel_j0(5.0) == pytest.approx(j0_oracle(5.0), abs=1e-12)
        assert bessel_j0(5.0) == pytest.approx(-0.177597, abs=1e-6)

    def test_even_and_bounded(self):
        xs = np.linspace(-40, 40, 801)
        vals = bessel_j0(xs)
        assert np.allclose(vals, bessel_j0(-xs), atol=1e-15)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_oracle_agreement_coarse(self):
        # The fine 1e4-point sweep runs in the acceptance suite; keep a
        # quick 400-point sweep here.
        xs = np.linspace(0.0, 500.0, 400)
        worst = max(abs(bessel_j0(float(x)) - j0_oracle(float(x))) for x in xs)
        assert worst < 1e-9

    def test_scalar_and_array_agree(self):
        xs = np.array([0.3, 2.0, 7.7, 123.4])
        arr = bessel_j0(xs)
        for x, v in zip(xs, arr):
            assert bessel_j0(float(x)) == pytest.approx(float(v), abs=1e-15)

    def test_a_list_runs_as_its_floats(self):
        # Entries are checked as _real checks a scalar: an int, past 64 bits
        # too, is its float and the shape is kept; a bool entry is refused.
        got = bessel_j0([[0, 2.5], [10**20, 7]])
        assert got.tobytes() == bessel_j0(np.array([[0.0, 2.5], [1e20, 7.0]])).tobytes()
        with pytest.raises(ValueError, match="^J0 arguments must be real numbers$"):
            bessel_j0([1.0, True])


_RNG = np.random.default_rng(7)
_J0_INPUTS = {
    "all_large": _RNG.uniform(5.0 + 1e-9, 900.0, 5001),
    "all_small": _RNG.uniform(0.0, 5.0, 4999),
    "mixed_with_tiny": np.concatenate([
        _RNG.uniform(0.0, 1e-5, 17), [0.0, 1e-5, 5.0, np.nextafter(5.0, 6.0), np.nan],
        _RNG.uniform(0.0, 12.0, 1000), _RNG.uniform(50.0, 900.0, 1000)]),
    "negative": -_RNG.uniform(0.0, 900.0, 3001),
    "zero_d_large": np.array(57.3),
    "zero_d_small": np.array(-2.5),
    "strided_2d": _RNG.uniform(-900.0, 900.0, (40, 60))[::2, ::3],
    # Each side of the guards on the rational form and its tiny fix-up.
    "empty": np.empty(0),
    "large_tile": _RNG.uniform(5.0 + 1e-9, 900.0, fringes._SWEEP_BLOCK),
    "large_plus_one_small": np.append(_RNG.uniform(5.0 + 1e-9, 900.0, 999), 3.25),
    "large_plus_exactly_five": np.insert(_RNG.uniform(5.0 + 1e-9, 900.0, 1000), 500, 5.0),
    "large_with_nan": np.insert(_RNG.uniform(5.0 + 1e-9, 900.0, 1000), 7, np.nan),
    "small_without_tiny": _RNG.uniform(1e-3, 5.0, 2001),
}


class TestBesselJ0InPlace:
    """The in-place branches write a fresh array of the input's shape and
    leave the input untouched; tests/bits.py pins their bits."""

    @pytest.mark.parametrize("name", sorted(_J0_INPUTS))
    def test_arrays(self, name):
        x = _J0_INPUTS[name]
        before = x.copy()
        got = bessel_j0(x)
        assert type(got) is np.ndarray and got.shape == x.shape
        assert np.array_equal(x, before, equal_nan=True)
        assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("x", [0.0, 3e-6, 4.99, 5.0, 5.5, 123.4, -870.25, 1e300])
    def test_python_float(self, x):
        assert type(bessel_j0(x)) is float


class TestBesselJ0Branches:
    """The rational form runs only on inputs that hold an entry <= 5."""

    @staticmethod
    def _record(monkeypatch):
        names = {id(getattr(fringes, n)): n for n in ("_RP", "_RQ", "_PP", "_PQ", "_QP", "_QQ")}
        seen = []
        polevl = fringes._polevl

        def recording(x, coef):
            seen.append(names[id(coef)])
            return polevl(x, coef)

        monkeypatch.setattr(fringes, "_polevl", recording)
        return seen

    def test_all_large_skips_rational_form(self, monkeypatch):
        seen = self._record(monkeypatch)
        bessel_j0(_J0_INPUTS["large_tile"])
        assert sorted(seen) == ["_PP", "_PQ", "_QP", "_QQ"]

    def test_fringe_profile_skips_rational_form(self, monkeypatch, si_model, blade):
        seen = self._record(monkeypatch)
        intensity_profile(BeamSpectrum(), SILICON, si_model, Reflection(7, 1, 1), blade,
                          n_samples=2000)
        assert set(seen) == {"_PP", "_PQ", "_QP", "_QQ"}

    def test_mixed_runs_rational_form_once(self, monkeypatch):
        seen = self._record(monkeypatch)
        bessel_j0(_J0_INPUTS["large_plus_one_small"])
        assert seen.count("_RP") == 1 and seen.count("_RQ") == 1


class TestBeamSpectrum:
    def test_flat_is_unit(self):
        s = BeamSpectrum(window=SpectrumWindow())
        assert np.all(s.intensity(np.linspace(0.8, 2.5, 50)) == 1.0)

    def test_maxwellian_peaks_at_peak(self):
        s = BeamSpectrum(shape="maxwellian", window=SpectrumWindow())
        lam = np.linspace(0.8, 2.5, 2000)
        flux = s.intensity(lam)
        assert np.all(flux > 0)
        assert lam[np.argmax(flux)] == pytest.approx(1.2, abs=2e-3)
        assert s.intensity(1.2) == pytest.approx(1.0, rel=1e-12)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            BeamSpectrum(shape="gaussian", window=SpectrumWindow())


class TestArgument:
    def test_si_111_magnitude(self, si_model, blade):
        # Direct evaluation: t |F| lambda / (a0^3 cos theta), t and |F|
        # converted to angstrom.
        arg = pendellosung_argument(SILICON, si_model, Reflection(1, 1, 1), blade, 0.8)
        assert arg == pytest.approx(117.0, abs=0.5)
        from pendellosung import bragg_angle, structure_factor_magnitude

        f = structure_factor_magnitude(SILICON, si_model, Reflection(1, 1, 1))
        theta = math.radians(bragg_angle(SILICON, Reflection(1, 1, 1), 0.8))
        direct = 1e8 * f * 1e-5 * 0.8 / (SILICON.a0**3 * math.cos(theta))
        assert arg == pytest.approx(direct, rel=1e-14)

    def test_linear_in_thickness(self, si_model):
        r = Reflection(1, 1, 1)
        a1 = pendellosung_argument(SILICON, si_model, r, BladeGeometry(1.0), 1.2)
        a2 = pendellosung_argument(SILICON, si_model, r, BladeGeometry(2.0), 1.2)
        a_tiny = pendellosung_argument(SILICON, si_model, r, BladeGeometry(1e-9), 1.2)
        assert a2 == pytest.approx(2 * a1, rel=1e-14)
        assert a_tiny == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("lam", [0.9, 1.2, 1.5])
    @pytest.mark.parametrize("r", [Reflection(1, 1, 1), Reflection(7, 1, 1)],
                             ids=["111", "711"])
    def test_argument_of_a_python_float(self, si_model, blade, r, lam):
        assert type(pendellosung_argument(SILICON, si_model, r, blade, lam)) is float

    def test_empty_sweep(self, si_model, blade):
        arg = pendellosung_argument(SILICON, si_model, Reflection(1, 1, 1), blade, np.empty(0))
        assert isinstance(arg, np.ndarray) and arg.dtype == float and arg.shape == (0,)

    @pytest.mark.parametrize("lam, quoted", [
        ([1.0, np.nan, 1.2], "NaN (1 of 3 entries) and [1, 1.2]"),
        ([0.0, 1.0], "[0, 1]"),
        ([1.0, 7.0], "[1, 7]"),  # 7 A is past 2d = 6.27 A
    ])
    def test_no_bragg_angle_quotes_whole_sweep(self, si_model, blade, lam, quoted):
        with pytest.raises(NoReflection) as err:
            pendellosung_argument(SILICON, si_model, Reflection(1, 1, 1), blade, np.array(lam))
        assert str(err.value) == f"(111): no Bragg angle for lambda in {quoted} A"

    @pytest.mark.parametrize("lam", [np.nan, [np.nan, np.nan]])
    def test_no_bragg_angle_all_nan(self, si_model, blade, lam):
        # No number to quote, and no warning from an empty min or max.
        n = np.size(lam)
        with pytest.raises(NoReflection, match=rf"^\(111\): no Bragg angle for lambda in "
                                               rf"NaN \({n} of {n} entries\)$"):
            pendellosung_argument(SILICON, si_model, Reflection(1, 1, 1), blade, lam)

    @pytest.mark.parametrize("r", [Reflection(1, 0, 0), Reflection(2, 2, 2)])
    def test_extinct_reflection_has_no_argument(self, si_model, blade, r):
        with pytest.raises(ForbiddenReflection, match=rf"^\({r.label()}\) is "):
            pendellosung_argument(SILICON, si_model, r, blade, 1.2)


class TestIntensityProfile:
    def test_zeros_are_j0_zeros(self, si_model, blade):
        spectrum = BeamSpectrum(window=SpectrumWindow())
        prof = intensity_profile(spectrum, SILICON, si_model, Reflection(1, 1, 1),
                                 blade, n_samples=20000)
        # Count internal minima that dip to ~0; compare with the J0 zeros
        # inside the swept argument range.
        expected = j0_zeros_between(prof.argument[0], prof.argument[-1])
        signs = np.sign(bessel_j0(prof.argument))
        crossings = int(np.sum(signs[1:] * signs[:-1] < 0))
        assert crossings == len(expected)
        # The sampled intensity actually drops to ~0 near each crossing.
        near_zero = prof.intensity < 1e-4
        assert near_zero.sum() >= len(expected)

    def test_matches_per_sample_bragg_angle_loop(self, si_model, blade):
        # Reference: the planner's scalar Bragg angle, one sample at a time.
        from pendellosung import bragg_angle, structure_factor_magnitude

        r = Reflection(7, 1, 1)
        prof = intensity_profile(BeamSpectrum(window=SpectrumWindow()), SILICON,
                                 si_model, r, blade, n_samples=500)
        f = structure_factor_magnitude(SILICON, si_model, r)
        theta = [math.radians(bragg_angle(SILICON, r, lam)) for lam in prof.lam]
        arg = [1e8 * f * 1e-5 * lam / (SILICON.a0**3 * math.cos(t))
               for lam, t in zip(prof.lam, theta)]
        np.testing.assert_allclose(prof.two_theta_deg, np.degrees(2.0 * np.array(theta)),
                                   rtol=1e-14)
        np.testing.assert_allclose(prof.argument, arg, rtol=1e-14)

    def test_exact_zero_at_j0_zero(self, si_model, blade):
        # Invert the argument to place a sample exactly on a J0 zero.
        r = Reflection(1, 1, 1)
        z = j0_zero(60)
        lo = pendellosung_argument(SILICON, si_model, r, blade, 0.9)
        assert lo < z
        lam = _lambda_for_argument(si_model, r, blade, z)
        arg = pendellosung_argument(SILICON, si_model, r, blade, lam)
        assert bessel_j0(arg) ** 2 < 1e-12

    def test_normalized(self, si_model, blade):
        spectrum = BeamSpectrum(shape="maxwellian", window=SpectrumWindow())
        prof = intensity_profile(spectrum, SILICON, si_model, Reflection(5, 1, 1),
                                 blade, n_samples=3000)
        assert prof.intensity.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(prof.intensity >= 0)
        assert np.all(np.diff(prof.lam) > 0)

    def test_forbidden_rejected(self, si_model, blade):
        spectrum = BeamSpectrum(window=SpectrumWindow())
        with pytest.raises(ForbiddenReflection):
            intensity_profile(spectrum, SILICON, si_model, Reflection(2, 2, 2), blade)

    def test_bne_shifts_fringes(self, blade):
        # Turning on the electrostatic term changes |F| and so moves the
        # interference zeros by a measurable amount.
        r = Reflection(1, 1, 1)
        z = j0_zero(70)
        m0 = scattering_model(SILICON, 0.0)
        m1 = scattering_model(SILICON, -1.31e-3)
        lam0 = _lambda_for_argument(m0, r, blade, z)
        lam1 = _lambda_for_argument(m1, r, blade, z)
        assert lam0 != pytest.approx(lam1, abs=1e-9)
        assert abs(lam0 - lam1) > 1e-5


class TestTiledProfile:
    """intensity_profile runs in tiles of _SWEEP_BLOCK samples; the result
    equals the whole-array evaluation bit for bit."""

    # Thin enough that the argument crosses 5 inside the first tile (of
    # 7 samples) for every n below, so one tile holds both J0 branches.
    THIN = BladeGeometry(0.03125)

    @pytest.mark.parametrize("n", [2, 7, 2 * 7 + 3])
    @pytest.mark.parametrize("shape", ["flat", "maxwellian"])
    def test_small_tiles_equal_whole_array(self, monkeypatch, si_model, n, shape):
        monkeypatch.setattr(fringes, "_SWEEP_BLOCK", 7)
        r = Reflection(1, 1, 1)
        spectrum = BeamSpectrum(shape=shape)
        prof = intensity_profile(spectrum, SILICON, si_model, r, self.THIN, n_samples=n)

        (lo, hi), _ = reflection_window(SILICON, r, spectrum.window)
        lam = np.linspace(lo, hi, n)
        arg = pendellosung_argument(SILICON, si_model, r, self.THIN, lam)
        assert any(np.any(t <= 5.0) and np.any(t > 5.0) for t in np.split(arg, range(7, n, 7)))
        s = lam * q_over_4pi(SILICON, r)
        two_theta = np.degrees(2.0 * np.radians(np.degrees(np.arcsin(s))))
        f_mag = structure_factor_magnitude(SILICON, si_model, r)
        raw = spectrum.intensity(lam) * lam**2 * f_mag**2 * bessel_j0(arg) ** 2

        assert np.array_equal(prof.lam, lam)
        assert np.array_equal(prof.two_theta_deg, two_theta)
        assert np.array_equal(prof.argument, arg)
        assert np.array_equal(prof.intensity, raw / raw.max())

    def test_no_reflection_quotes_the_failing_tile(self, monkeypatch, si_model, blade):
        # A window forced past lambda = 2d = 6.27 A, where no Bragg angle
        # exists: the sweep stops at the first tile it cannot sweep, the
        # third of 7-sample tiles, and quotes that tile's wavelengths.
        monkeypatch.setattr(fringes, "_SWEEP_BLOCK", 7)
        monkeypatch.setattr(fringes, "reflection_window", lambda *a: ((1.0, 7.0), (0.0, 0.0)))
        with pytest.raises(NoReflection,
                           match=r"^\(111\): no Bragg angle for lambda in \[6\.25, 7\] A$"):
            intensity_profile(BeamSpectrum(), SILICON, si_model, Reflection(1, 1, 1), blade,
                              n_samples=17)

    @pytest.mark.parametrize("n", [2, fringes._SWEEP_BLOCK - 1, fringes._SWEEP_BLOCK,
                                   fringes._SWEEP_BLOCK + 1, 3 * fringes._SWEEP_BLOCK + 5])
    def test_one_block_and_linspace_bits(self, si_model, blade, n):
        # The four arrays are rows of one allocation; lam, written a tile
        # at a time, is np.linspace bit for bit whatever the tile count.
        r = Reflection(7, 1, 1)
        spectrum = BeamSpectrum()
        prof = intensity_profile(spectrum, SILICON, si_model, r, blade, n_samples=n)
        arrays = (prof.lam, prof.two_theta_deg, prof.argument, prof.intensity)
        base = prof.lam.base
        assert base is not None and base.shape == (4, n)
        assert all(a.base is base and a.flags.c_contiguous and a.shape == (n,) for a in arrays)
        (lo, hi), _ = reflection_window(SILICON, r, spectrum.window)
        assert prof.lam.tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_peak_memory_is_results_plus_one_tile(self, si_model, blade):
        # Four result arrays plus one tile's temporaries; a whole-array
        # evaluation holds about ten result-sized arrays at its peak.
        n = 200_000
        spectrum = BeamSpectrum(shape="maxwellian")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            intensity_profile(spectrum, SILICON, si_model, Reflection(7, 1, 1), blade,
                              n_samples=n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6 * n * 8


class TestAngleConversionPremise:
    """np.degrees and np.radians are one multiply by 180/pi and pi/180 bit
    for bit, the premise of the profile's in-place conversions."""

    def test_products_are_the_ufuncs(self):
        rng = np.random.default_rng(20)
        tiny, big = np.finfo(float).tiny, np.finfo(float).max
        x = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, tiny, -tiny,
             big, -big],
            rng.uniform(-math.pi, math.pi, 100_000),
            rng.uniform(-400.0, 400.0, 100_000),
            # Every binary exponent, subnormals included.
            np.ldexp(rng.uniform(-1.0, 1.0, 100_000), rng.integers(-1074, 1025, 100_000)),
        ])
        with np.errstate(all="ignore"):
            assert np.degrees(x).tobytes() == (x * (180.0 / math.pi)).tobytes()
            assert np.radians(x).tobytes() == (x * (math.pi / 180.0)).tobytes()


_SI_PURE = [p.reflection for p in survey(SILICON).pure]


class TestProfileMatchesOracle:
    """Each sample of the profile is theta = asin(lambda Q/4pi), the argument
    t |F| lambda / (a0^3 cos theta) and I0 lambda^2 |F|^2 J0(arg)^2 over the
    peak, built a sample at a time with math's functions and the J0 oracle;
    tests/bits.py pins the bits."""

    @pytest.mark.parametrize("shape", ["flat", "maxwellian"])
    @pytest.mark.parametrize("crystal,r", [(SILICON, r) for r in _SI_PURE]
                             + [(GERMANIUM, Reflection(1, 1, 1))],
                             ids=[f"Si{r.label()}" for r in _SI_PURE] + ["Ge111"])
    def test_profiles(self, crystal, r, shape):
        model = scattering_model(crystal, -1.31e-3)
        spectrum = BeamSpectrum(shape=shape)
        f_mag = structure_factor_magnitude(crystal, model, r)
        q = q_over_4pi(crystal, r)
        (lo, hi), _ = reflection_window(crystal, r, spectrum.window)
        lam = np.linspace(lo, hi, 301)
        theta = [math.asin(x * q) for x in lam.tolist()]
        # The thinnest blade puts J0's small-argument branch in the low orders.
        for t in (0.03125, 2.0):
            prof = intensity_profile(spectrum, crystal, model, r, BladeGeometry(t),
                                     n_samples=lam.size)
            scale = t * ANGSTROM_PER_CM * f_mag * ANGSTROM_PER_FM / crystal.a0**3
            arg = np.array([scale * x / math.cos(th) for x, th in zip(lam.tolist(), theta)])
            raw = (spectrum.intensity(lam) * lam**2 * f_mag**2
                   * np.array([j0_oracle(a) ** 2 for a in arg.tolist()]))
            assert np.array_equal(prof.lam, lam)
            np.testing.assert_allclose(prof.two_theta_deg, np.degrees(2.0 * np.array(theta)),
                                       rtol=4e-15, atol=0)
            np.testing.assert_allclose(prof.argument, arg, rtol=4e-15, atol=0)
            np.testing.assert_allclose(prof.intensity, raw / raw.max(), rtol=0, atol=1e-12)


class TestFringeSensitivity:
    def test_forward_amplitude_scaling_moves_zeros_as_predicted(self, blade):
        # d(arg)/d(b_nuclear) ~ arg/b_nuclear, so a relative change eps
        # moves a zero by -eps * arg / (d arg/d lambda) to first order.
        r = Reflection(1, 1, 1)
        z = j0_zero(80)
        eps = 1e-4
        base = scattering_model(SILICON, 0.0)
        # b_nuclear is the crystal's, so the crystal is what changes.
        bumped = dataclasses.replace(SILICON, b_nuclear=SILICON.b_nuclear * (1 + eps))
        lam0 = _lambda_for_argument(base, r, blade, z)
        lam1 = _lambda_for_argument(base, r, blade, z, crystal=bumped)
        darg = _argument_derivative(base, r, blade, lam0)
        arg0 = pendellosung_argument(SILICON, base, r, blade, lam0)
        predicted = -eps * arg0 / darg
        assert (lam1 - lam0) == pytest.approx(predicted, rel=5e-3)


class TestFringeCount:
    def test_si_111_full_window(self, si_model, blade):
        counts = fringe_count(SILICON, si_model, Reflection(1, 1, 1), blade,
                              SpectrumWindow())
        assert counts.period_count == pytest.approx(44, abs=2)
        assert 38 <= counts.period_count <= 46

    def test_si_711_survey_window(self, si_model, blade):
        counts = fringe_count(SILICON, si_model, Reflection(7, 1, 1), blade,
                              SpectrumWindow())
        # Both conventions bracket the survey estimate of 44.
        assert counts.period_count == pytest.approx(24, abs=1)
        assert counts.antinode_count == pytest.approx(47, abs=1)
        assert counts.period_count <= 44 <= counts.antinode_count

    def test_counts_scale_with_thickness(self, si_model):
        w = SpectrumWindow()
        thin = fringe_count(SILICON, si_model, Reflection(1, 1, 1), BladeGeometry(0.5), w)
        thick = fringe_count(SILICON, si_model, Reflection(1, 1, 1), BladeGeometry(1.0), w)
        assert thick.delta_argument == pytest.approx(2 * thin.delta_argument, rel=1e-12)

    def test_subperiod_regime(self, si_model):
        counts = fringe_count(SILICON, si_model, Reflection(1, 1, 1),
                              BladeGeometry(1e-4), SpectrumWindow())
        assert counts.period_count in (0, 1)

    def test_forbidden_rejected(self, si_model, blade):
        with pytest.raises(ForbiddenReflection):
            fringe_count(SILICON, si_model, Reflection(2, 2, 2), blade, SpectrumWindow())


class TestNonPositiveModelAmplitude:
    """At b_ne = 1 fm the model amplitude of (711) is negative: every fringe
    function refuses it by name, where a sweep used to run on a negative
    |F| and fail with an unrelated message (or not at all)."""

    @pytest.mark.parametrize("call", [
        lambda m, r, g: pendellosung_argument(SILICON, m, r, g, 1.0),
        lambda m, r, g: intensity_profile(BeamSpectrum(), SILICON, m, r, g),
        lambda m, r, g: fringe_count(SILICON, m, r, g, SpectrumWindow()),
    ], ids=["argument", "profile", "count"])
    def test_refused_naming_the_reflection(self, blade, call):
        with pytest.raises(ValueError, match=r"^model amplitude at \(711\) is -4\.13246 fm, "
                                             r"not positive \(b_ne = 1 fm\)$"):
            call(scattering_model(SILICON, 1.0), Reflection(7, 1, 1), blade)


def _lambda_for_argument(model, r, blade, target, lo=0.82, hi=2.49, crystal=SILICON):
    """Invert the monotone argument function by bisection."""
    f_lo = pendellosung_argument(crystal, model, r, blade, lo) - target
    f_hi = pendellosung_argument(crystal, model, r, blade, hi) - target
    assert f_lo < 0 < f_hi, "target argument not bracketed"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (pendellosung_argument(crystal, model, r, blade, mid) - target) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _argument_derivative(model, r, blade, lam, h=1e-6):
    up = pendellosung_argument(SILICON, model, r, blade, lam + h)
    dn = pendellosung_argument(SILICON, model, r, blade, lam - h)
    return (up - dn) / (2 * h)
