"""Edge and option coverage beyond the core behavior tests."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pendellosung import (
    SILICON,
    SILICON_TABLE,
    BeamSpectrum,
    BladeGeometry,
    FormFactorTable,
    Measurement,
    NoReflection,
    PendellosungError,
    Reflection,
    ScatteringModel,
    SpectrumWindow,
    bessel_j0,
    bragg_angle,
    charge_radius_from_bne,
    debye_waller,
    debye_waller_correct,
    error_budget,
    extract_bne_single,
    fit_bne,
    fit_temperature_factor,
    fringe_count,
    intensity_profile,
    joint_fit,
    monte_carlo_validate,
    pendellosung_argument,
    q_over_4pi,
    scattering_model,
    structure_factor_magnitude,
    synth_measurements,
)
from pendellosung import fringes
from pendellosung.cli import main


def run(*argv):
    return main(list(argv))


class TestFixedInterceptFits:
    def test_joint_two_parameter(self, si_model, pure_plans):
        new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
        ms = synth_measurements(si_model, SILICON, new, sigma=0.0, seed=0)
        fit = joint_fit(ms, SILICON, si_model.form_factor,
                        include_forward=False, free_intercept=False)
        assert fit.param_names == ("B", "b_ne")
        assert fit.value("B") == pytest.approx(0.4613, rel=1e-10)
        assert fit.value("b_ne") == pytest.approx(-1.31e-3, rel=1e-10)
        assert fit.dof == 8 - 2

    def test_temperature_factor_fixed_intercept_sigma(self, si_model, pure_plans):
        # With a pinned intercept the slope error is 1/sqrt(sum w x^2).
        new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
        ms = synth_measurements(si_model, SILICON, new, sigma=0.0, seed=0)
        _, sB = fit_temperature_factor(ms, SILICON, free_intercept=False)
        from pendellosung import q_over_4pi

        sxx = sum((q_over_4pi(SILICON, m.reflection) ** 2 / (m.sigma / m.b_meas)) ** 2
                  for m in ms)
        assert sB == pytest.approx(1.0 / math.sqrt(sxx), rel=1e-12)

    def test_bne_without_forward_point(self, si_model, pure_plans):
        new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
        ms = synth_measurements(si_model, SILICON, new, sigma=0.0, seed=0)
        bne, sigma = fit_bne(ms, SILICON, si_model.form_factor, include_forward=False)
        assert bne == pytest.approx(-1.31e-3, rel=1e-9)
        # Dropping the tight forward anchor costs precision.
        _, sigma_fwd = fit_bne(ms, SILICON, si_model.form_factor, include_forward=True)
        assert sigma > sigma_fwd


class TestBudgetVariants:
    def test_propagation_toggle_widens(self, si_model, pure_plans):
        new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
        with_b = error_budget(si_model, SILICON, new, propagate_sigma_B=True)
        without = error_budget(si_model, SILICON, new, propagate_sigma_B=False)
        assert with_b.sigma_bne > without.sigma_bne
        assert with_b.sigma_B == without.sigma_B


class TestFringeEdges:
    def test_argument_propagates_no_reflection(self, si_model, blade):
        with pytest.raises(NoReflection):
            pendellosung_argument(SILICON, si_model, Reflection(1, 1, 1), blade, 7.0)

    def test_profile_needs_two_samples(self, si_model, blade):
        spectrum = BeamSpectrum(window=SpectrumWindow())
        with pytest.raises(ValueError):
            intensity_profile(spectrum, SILICON, si_model, Reflection(1, 1, 1),
                              blade, n_samples=1)

    @pytest.mark.parametrize("n", [2000.0, "2000", 2.5, True])
    def test_profile_refuses_non_integral_samples(self, si_model, blade, n):
        with pytest.raises(ValueError, match=r"^n_samples must be an integer >= 2$"):
            intensity_profile(BeamSpectrum(), SILICON, si_model, Reflection(7, 1, 1), blade,
                              n_samples=n)

    def test_profile_takes_numpy_integer_samples(self, si_model, blade):
        prof = intensity_profile(BeamSpectrum(), SILICON, si_model, Reflection(7, 1, 1), blade,
                                 n_samples=np.int64(50))
        assert prof.lam.shape == (50,)

    def test_blade_thickness_validated(self):
        with pytest.raises(ValueError):
            BladeGeometry(thickness_cm=0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_blade_thickness_must_be_finite(self, t):
        with pytest.raises(ValueError):
            BladeGeometry(thickness_cm=t)

    def test_argument_array_matches_scalar_calls(self, si_model, blade):
        r = Reflection(7, 1, 1)
        lam = np.linspace(0.8, 1.3, 7)
        arr = pendellosung_argument(SILICON, si_model, r, blade, lam)
        one = [pendellosung_argument(SILICON, si_model, r, blade, x) for x in lam]
        assert isinstance(one[0], float)
        np.testing.assert_allclose(arr, one, rtol=1e-15)

    @pytest.mark.parametrize("lam", [[0.8, 7.0], [0.0, 0.8], [-1.0]])
    def test_argument_array_rejects_any_unreachable_wavelength(self, si_model, blade, lam):
        with pytest.raises(NoReflection):
            pendellosung_argument(SILICON, si_model, Reflection(1, 1, 1), blade,
                                  np.array(lam))

    def test_nan_sweep_is_a_typed_error(self, monkeypatch, si_model, blade):
        # A NaN constant makes the argument sweep non-increasing; the check
        # raises a toolkit error (not an assert, so it also holds under -O).
        # The model refuses a NaN b_ne, so the NaN comes in as |F|.
        monkeypatch.setattr(fringes, "structure_factor_magnitude", lambda *a: math.nan)
        with pytest.raises(PendellosungError, match="not increasing"):
            fringe_count(SILICON, si_model, Reflection(7, 1, 1), blade, SpectrumWindow())

    def test_overflowing_argument_is_a_typed_error(self, si_model):
        huge = BladeGeometry(thickness_cm=1e300)
        with pytest.raises(PendellosungError, match=r"^\(711\): J0 argument overflows"):
            intensity_profile(BeamSpectrum(), SILICON, si_model, Reflection(7, 1, 1), huge)

    def test_overflow_found_wherever_the_largest_wavelength_is(self, si_model):
        # Only sin(theta) = 1 overflows here, and it comes first.
        r = Reflection(1, 1, 1)
        lam = np.array([1.0 / q_over_4pi(SILICON, r), 1.0])
        thick = BladeGeometry(thickness_cm=1e298)
        assert math.isfinite(pendellosung_argument(SILICON, si_model, r, thick, 1.0))
        with pytest.raises(PendellosungError, match="overflows at lambda = 6.271 A"):
            pendellosung_argument(SILICON, si_model, r, thick, lam)

    def test_overflowing_peak_is_a_typed_error(self):
        # |F|^2 at (711) is finite, I0 lambda^2 |F|^2 is not at the longer wavelengths;
        # pytest's filter makes a numpy overflow or divide warning an error.
        model = scattering_model(SILICON, -3e152)
        r = Reflection(7, 1, 1)
        assert math.isfinite(structure_factor_magnitude(SILICON, model, r) ** 2)
        with pytest.raises(PendellosungError, match=r"^\(711\): peak intensity .* is past the "
                                                    r"float range \(\|F\| = 1\.27835e\+154 fm\)$"):
            intensity_profile(BeamSpectrum(), SILICON, model, r, BladeGeometry())


class TestInferenceEdges:
    def test_synth_rejects_negative_sigma(self, si_model):
        with pytest.raises(ValueError):
            synth_measurements(si_model, SILICON, [Reflection(4, 2, 2)], sigma=-1.0)

    def test_mc_rejects_bad_trials(self, si_model):
        with pytest.raises(ValueError):
            monte_carlo_validate(si_model, SILICON, [Reflection(4, 2, 2)], n_trials=1)

    def test_per_reflection_sigma_sequence(self, si_model, pure_plans):
        new = [p.reflection for p in pure_plans if p.reflection.label() != "111"]
        sig = np.linspace(0.0005, 0.002, len(new))
        ms = synth_measurements(si_model, SILICON, new, sigma=sig, seed=4)
        assert [m.sigma for m in ms] == pytest.approx(list(sig))

    def test_reflection_requires_integers(self):
        for hkl in [(1.5, 1, 1), (2.0, 2.0, 0.0), (math.inf, 0, 0), (True, True, True),
                    (2, 2, False), (np.True_, 1, 1)]:
            with pytest.raises(ValueError, match="Miller indices must be integers"):
                Reflection(*hkl)


class TestCliOptionPaths:
    def test_plan_strict(self, tmp_path):
        assert run("plan", "--strict", "--all", "--out", str(tmp_path)) == 0
        with open(tmp_path / "plan.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        verdict = {r[0]: r[-1] for r in rows[1:]}
        assert verdict["331"] == "true"      # geometric verdict
        assert verdict["111"] == "false"     # tail flagged strictly
        assert verdict["422"] == "false"

    def test_fit_mode_b(self, tmp_path, capsys):
        assert run("synth", "--sigma", "0", "--out", str(tmp_path)) == 0
        assert run("fit", str(tmp_path / "measurements.csv"), "--mode", "B",
                   "--out", str(tmp_path)) == 0
        assert "B = 0.45" in capsys.readouterr().out  # linearization bias

    def test_synth_temperature_factor_errors(self, tmp_path):
        assert run("synth", "--error-model", "temperature-factor",
                   "--all-pure", "--out", str(tmp_path)) == 0
        with open(tmp_path / "measurements.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 10  # header + nine survey reflections
        sigmas = [float(r[4]) for r in rows[1:]]
        assert sigmas == sorted(sigmas)  # grow with Q^2 along the survey order


class TestErrorBoundary:
    """Every bad argument or value ends in exit 2 (configuration) or 3 (data)
    with a message on stderr, never in a traceback."""

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 EiB for an array"])
    def test_out_of_memory_is_a_data_error(self, tmp_path, capsys, monkeypatch, message):
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(fringes, "intensity_profile", refuse)
        assert run("simulate", "711", "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("error: out of memory")
        assert message in err


# Small generated configurations: each key takes one of its own values (mostly
# valid) or one of the generic bad ones.
_BAD_VALUES = ("nan", "inf", "-inf", "-1", "0", "abc", "")
_KEY_VALUES = {
    "crystal": {"name": ("Si", "Ge", "W"), "a0": ("5.43072", "5.6575"), "z": ("14", "32", "1.5"),
                "b_nuclear": ("4.1507", "8.185"), "sigma_b_nuclear": ("0.0002", "0.01"),
                "b": ("0.4613", "0.5"), "sigma_b": ("0.0027", "0.01"),
                # short.csv: a table row of one field.
                "form_factor_csv": ("missing.csv", "short.csv")},
    "spectrum": {"lambda_min": ("0.7", "0.8", "1.5"), "lambda_max": ("2.0", "2.5", "3.0"),
                 # 0.001 A: a survey walk past the planner's bound, refused unwalked.
                 "lambda_peak": ("1.2", "2.0", "0.001"), "two_theta_min": ("5", "15", "40"),
                 "two_theta_max": ("60", "110", "180", "200")},
    "blade": {"thickness_cm": ("0.5", "1.0", "3.0")},
    "model": {"reference": ("argonne", "dubna", "theory", "none"),
              "b_ne": ("-1.31e-3", "0.01"), "b": ("0.4613", "0.3")},
    "fit": {"include_forward": ("true", "false"), "free_intercept": ("true", "false")},
    # m.csv: an existing file (the measurements) named as the output directory.
    "run": {"seed": ("0", "7", "-3"), "out": ("out", "m.csv")},
}
_ENTRIES = [(section, key) for section, keys in _KEY_VALUES.items() for key in keys]


@st.composite
def _config_text(draw):
    chosen = draw(st.lists(st.sampled_from(_ENTRIES), max_size=4, unique=True))
    sections = {}
    for section, key in chosen:
        value = draw(st.sampled_from(_KEY_VALUES[section][key]) | st.sampled_from(_BAD_VALUES))
        sections.setdefault(section, []).append(f"{key} = {value}")
    if draw(st.booleans()):
        sections.setdefault(draw(st.sampled_from(["crystal", "extra"])), []).append("bogus = 1")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


_NUMBERS = st.sampled_from(["0.0008", "0.01", "10", "0", "-1", "nan", "inf", "x"])
# The last index has h^2+k^2+l^2 past the float range.
_HKL = st.sampled_from(["111", "422", "711", "642", "222", "100", "999", "4,2,2", "zzz",
                        "1" + "0" * 200 + ",0,0"])
_COUNTS = st.integers(-1, 2000).map(str)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _switch(name):
    return st.sampled_from([[], [name]])


def _concat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_COMMAND_ARGS = {
    "plan": _concat(_switch("--all"), _switch("--strict")),
    # Sample counts past numpy's array limit, which np.empty refuses before
    # it allocates anything; a size malloc might grant would run the work.
    "simulate": _concat(_HKL.map(lambda h: [h]),
                        _flag("--samples", _COUNTS | st.sampled_from([str(2**62), str(10**20)])),
                        _flag("--spectrum", st.sampled_from(["flat", "maxwellian", "hot"]))),
    "fit": _concat(st.just(["{measurements}"]),
                   _flag("--mode", st.sampled_from(["auto", "joint", "bne", "B"]))),
    "budget": _concat(_flag("--sigma", _NUMBERS), _switch("--primary-only"),
                      st.one_of(st.just([]), st.lists(_HKL, max_size=3).map(
                          lambda hs: ["--hkl", *hs]))),
    "radius": _concat(_flag("--sigma", _NUMBERS), _NUMBERS.map(lambda v: ["--", v])),
    "synth": _concat(_flag("--sigma", _NUMBERS), _switch("--all-pure"),
                     _flag("--error-model", st.sampled_from(["flat", "temperature-factor"]))),
    # Trial counts past the cap are refused before any noise is drawn.
    "mc": _concat(_flag("--trials", _COUNTS | st.sampled_from(["1000000001", str(10**18)])),
                  _flag("--sigma", _NUMBERS)),
}


@st.composite
def _measurement_text(draw):
    rows = draw(st.lists(st.tuples(_HKL.filter(lambda h: h.isdigit()),
                                   st.sampled_from(["3.7876", "3.9", "-1", "nan", "x"]),
                                   st.sampled_from(["0.0008", "0", "inf"])), max_size=4))
    lines = [",".join([*hkl, b, s]) for hkl, b, s in rows]
    if draw(st.booleans()):
        lines.append("4,2,2,3.9")
    return "h,k,l,b_meas_fm,sigma_fm\n" + "".join(f"{line}\n" for line in lines)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(_COMMAND_ARGS)), data=st.data(),
       config=st.one_of(st.none(), _config_text()), measurements=_measurement_text(),
       seed=st.one_of(st.just([]), st.sampled_from(["0", "5", "-1"]).map(lambda v: ["--seed", v])))
def test_exit_code_property(tmp_path, monkeypatch, capsys, command, data, config, measurements,
                            seed):
    """Any argv for any subcommand, under any small config, exits 0, 2 or 3;
    a failure ends in an error line on stderr, never in a traceback. It runs
    in tmp_path, so the config's relative paths, [run] out among them, land
    there."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text(measurements)
    (tmp_path / "short.csv").write_text("q_over_4pi_A_inv,f\n0,1\n0.5\n")
    args = [a.format(measurements=tmp_path / "m.csv") for a in data.draw(_COMMAND_ARGS[command])]
    argv = list(seed)
    if config is not None:
        (tmp_path / "c.ini").write_text(config)
        argv += ["--config", str(tmp_path / "c.ini")]
    try:
        rc = main([command, *argv, *args])
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
    if rc != 0:
        last = err.strip().splitlines()[-1]
        assert "error:" in last


# Every kind of value an integer argument may be handed. Accepted counts stay
# at most 64, so no call allocates much.
_SMALL = st.integers(-3, 64)
_INTEGER_LIKE = st.one_of(
    st.booleans(), st.sampled_from([np.True_, np.False_]), _SMALL, _SMALL.map(float),
    st.floats(), st.text(max_size=3), st.none(),
    st.tuples(st.sampled_from([np.int8, np.int16, np.int32, np.int64]), _SMALL).map(
        lambda t: t[0](t[1])),
    st.tuples(st.sampled_from([np.uint8, np.uint64]), st.integers(0, 64)).map(
        lambda t: t[0](t[1])),
)


def _profile(model, blade, n):
    prof = intensity_profile(BeamSpectrum(), SILICON, model, Reflection(7, 1, 1), blade,
                             n_samples=n)
    return [a.tolist() for a in (prof.lam, prof.two_theta_deg, prof.argument, prof.intensity)]


def _mc(model, n):
    res = monte_carlo_validate(model, SILICON, [Reflection(4, 2, 2), Reflection(6, 2, 0)],
                               n_trials=n)
    return res.n_trials, res.empirical_cov.tolist(), res.analytic_cov.tolist()


_EXTRACT_ARGS = (4.1538, 0.0011, 4.1507, 0.0002, 14, 0.7526)  # extract_bne_single's six


# (entry point, the ValueError message it refuses with) per integer argument.
_INTEGER_SITES = {
    "Miller index": (lambda model, blade, v: Reflection(v, 1, 1),
                     "Miller indices must be integers"),
    "Z": (lambda model, blade, v: replace(SILICON, Z=v), "Z must be an integer >= 1"),
    "extract_bne_single Z": (lambda model, blade, v: extract_bne_single(
        *_EXTRACT_ARGS[:4], v, _EXTRACT_ARGS[5]), "Z must be an integer >= 1"),
    "n_samples": (_profile, "n_samples must be an integer >= 2"),
    "n_trials": (lambda model, blade, v: _mc(model, v), "n_trials must be an integer >= 2"),
    "seed": (lambda model, blade, v: synth_measurements(model, SILICON, [Reflection(4, 2, 2)],
                                                        seed=v),
             "seed must be a non-negative integer"),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(site=st.sampled_from(sorted(_INTEGER_SITES)), value=_INTEGER_LIKE)
def test_integer_arguments_are_their_int_or_refused(si_model, blade, site, value):
    """An integer argument given as any value either runs as the equal int
    would, or raises that argument's ValueError; bools and floats, integral
    or not, are refused."""
    call, message = _INTEGER_SITES[site]

    def outcome(v):
        try:
            return call(si_model, blade, v)
        except ValueError as exc:
            return ValueError, str(exc)

    got = outcome(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        assert got == outcome(int(value))
        if isinstance(got, tuple) and got[0] is ValueError:
            assert got[1] == message
    else:
        assert got == (ValueError, message)


# Every kind of value a real argument may be handed; ints of 2**1024 and
# more are past the float range.
_REAL_LIKE = st.one_of(
    st.booleans(), st.sampled_from([np.True_, np.False_]), st.floats(), _SMALL,
    st.integers(2**1024, 2**1100), st.integers(-2**1100, -2**1024),
    st.floats(-1e3, 1e3).map(np.float64), st.floats(-1e3, 1e3, width=32).map(np.float32),
    _SMALL.map(np.int64), st.text(max_size=3), st.binary(max_size=3), st.none(),
)
_TWO = [Reflection(4, 2, 2), Reflection(6, 2, 0)]
_RADIUS = "b_ne must be finite, sigma_b_ne non-negative and finite"
_FLOAT_Q = "Q/4pi must be a real number in the float range"
_DWC_ARGS = (3.8, 0.001, 0.46, 0.003, 0.5)  # debye_waller_correct's five reals


# (entry point, the ValueError message it refuses with) per real argument.
_REAL_SITES = {
    **{f"CrystalSpec {name}": (lambda model, v, name=name: replace(SILICON, **{name: v}),
                               f"{name} must be finite")
       for name in ("a0", "b_nuclear", "sigma_b_nuclear", "B", "sigma_B")},
    "ScatteringModel b_ne": (lambda model, v: ScatteringModel(v, 0.5, SILICON_TABLE),
                             "b_ne must be finite"),
    "ScatteringModel B": (lambda model, v: ScatteringModel(0.0, v, SILICON_TABLE),
                          "B must be non-negative and finite"),
    "debye_waller B": (lambda model, v: debye_waller(v, 0.5), "B must be non-negative and finite"),
    "debye_waller q_over_4pi": (lambda model, v: debye_waller(0.5, v), _FLOAT_Q),
    **{f"debye_waller_correct {name}": (
        lambda model, v, i=i: debye_waller_correct(*_DWC_ARGS[:i], v, *_DWC_ARGS[i + 1:]), message)
       for i, (name, message) in enumerate([
           ("b_meas_value", "b_meas must be a real number in the float range"),
           ("sigma_b_meas", "sigma_b_meas must be non-negative and finite"),
           ("B", "B must be non-negative and finite"),
           ("sigma_B", "sigma_B must be non-negative and finite"),
           ("q_over_4pi", _FLOAT_Q)])},
    **{f"extract_bne_single {name}": (
        lambda model, v, i=i: extract_bne_single(*_EXTRACT_ARGS[:i], v, *_EXTRACT_ARGS[i + 1:]),
        message)
       for i, name, message in [
           (0, "b_q", "b_q must be finite"),
           (1, "sigma_b_q", "sigma_b_q must be non-negative and finite"),
           (2, "b_nuclear", "b_nuclear must be finite"),
           (3, "sigma_b_nuclear", "sigma_b_nuclear must be non-negative and finite"),
           (5, "f", "f must be finite")]},  # Z, at 4, is an integer site
    **{f"SpectrumWindow {name}": (lambda model, v, name=name: SpectrumWindow(**{name: v}),
                                  "lambda_peak and lambda_max must be positive and finite")
       for name in ("lambda_max", "lambda_peak")},
    "SpectrumWindow lambda_min": (lambda model, v: SpectrumWindow(lambda_min=v),
                                  "need 0 < lambda_min < lambda_max"),
    **{f"SpectrumWindow {name}": (lambda model, v, name=name: SpectrumWindow(**{name: v}),
                                  "need 0 <= two_theta_min < two_theta_max <= 180")
       for name in ("two_theta_min", "two_theta_max")},
    "bragg_angle lam": (lambda model, v: bragg_angle(SILICON, Reflection(4, 2, 2), v),
                        "wavelength must be positive and finite"),
    "BladeGeometry thickness_cm": (lambda model, v: BladeGeometry(v),
                                   "thickness must be positive and finite"),
    "charge_radius_from_bne b_ne": (lambda model, v: charge_radius_from_bne(v), _RADIUS),
    "charge_radius_from_bne sigma_b_ne": (
        lambda model, v: charge_radius_from_bne(0.0, v), _RADIUS),
    "synth_measurements sigma": (lambda model, v: synth_measurements(model, SILICON, _TWO,
                                                                     sigma=v),
                                 "sigma must be non-negative and finite"),
    "Measurement b_meas": (lambda model, v: Measurement(_TWO[0], v, 0.001),
                           "b_meas must be positive and finite"),
    "Measurement sigma": (lambda model, v: Measurement(_TWO[0], 3.8, v),
                          "sigma must be positive and finite"),
    "error_budget sigma_b_meas": (lambda model, v: error_budget(model, SILICON, _TWO,
                                                                sigma_b_meas=v),
                                  "sigma_b_meas must be positive and finite"),
    "monte_carlo_validate sigma": (lambda model, v: [
        c.tolist() for c in vars(monte_carlo_validate(model, SILICON, _TWO, sigma=v,
                                                       n_trials=4)).values()
        if isinstance(c, np.ndarray)], "sigma must be positive and finite"),
    "FormFactorTable.f_at q": (lambda model, v: SILICON_TABLE.f_at(v), _FLOAT_Q),
    "FormFactorTable sample": (lambda model, v: FormFactorTable("X", ((0.0, 1.0), (v, 0.5))),
                               "q and f samples must be finite"),
    # Array arguments, alone or beside a float in a list: a list is checked
    # entry by entry before numpy could make a bool a float.
    "bessel_j0 x": (lambda model, v: bessel_j0(v), "J0 arguments must be real numbers"),
    "bessel_j0 list": (lambda model, v: bessel_j0([1.0, v]), "J0 arguments must be real numbers"),
    "pendellosung_argument lam": (lambda model, v: pendellosung_argument(
        SILICON, model, _TWO[0], BladeGeometry(), v), "wavelengths must be real numbers"),
    "pendellosung_argument list": (lambda model, v: pendellosung_argument(
        SILICON, model, _TWO[0], BladeGeometry(), [1.2, v]), "wavelengths must be real numbers"),
}


@settings(max_examples=535, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(site=st.sampled_from(sorted(_REAL_SITES)), value=_REAL_LIKE)
# Each of these built a window, ran, or raised a bare TypeError or OverflowError.
@example(site="SpectrumWindow lambda_min", value=True)
@example(site="SpectrumWindow two_theta_min", value=True)
@example(site="SpectrumWindow two_theta_min", value="1")
@example(site="pendellosung_argument lam", value="1.2")
@example(site="pendellosung_argument lam", value=10**400)
@example(site="bessel_j0 x", value=10**400)
@example(site="debye_waller q_over_4pi", value=True)
@example(site="debye_waller q_over_4pi", value="0.5")
@example(site="debye_waller_correct q_over_4pi", value=True)
@example(site="extract_bne_single f", value="0.5")
@example(site="FormFactorTable.f_at q", value="0.3")
@example(site="FormFactorTable.f_at q", value=False)
# A bool in a list of floats ran as 1.0, and an int past 64 bits was refused.
@example(site="bessel_j0 list", value=True)
@example(site="bessel_j0 list", value=10**20)
@example(site="pendellosung_argument list", value=np.bool_(True))
@example(site="pendellosung_argument list", value=2**64)
def test_real_arguments_are_their_float_or_refused(si_model, site, value):
    """A real argument given as any value either runs exactly as float(value)
    would, stored as that float, or raises that argument's ValueError; bools
    (numpy's too), strings, bytes, None and ints past the float range are
    refused."""
    call, message = _REAL_SITES[site]

    def outcome(v):
        try:
            return repr(call(si_model, v))  # repr tells 3 from 3.0 and matches nan
        except (ValueError, PendellosungError) as exc:
            return type(exc), str(exc)

    got = outcome(value)
    huge = isinstance(value, int) and abs(value) >= 2**1024
    if isinstance(value, (int, float, np.integer, np.floating)) and not (
            isinstance(value, bool) or huge):
        assert got == outcome(float(value))
    else:
        assert got == (ValueError, message)


# numpy arrays whose dtype is not an integer or a float, two entries each.
_NON_REAL_ARRAYS = {
    "bool": np.array([True, False]),
    "str": np.array(["1.2", "1.3"]),
    "bytes": np.array([b"1.2", b"1.3"]),
    "complex": np.array([1.2 + 0j, 1.3 + 0j]),
    "object": np.array([1.2, 1.3], dtype=object),
    "datetime64": np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
}


@pytest.mark.parametrize("dtype", sorted(_NON_REAL_ARRAYS))
@pytest.mark.parametrize("site", ["bessel_j0 x", "pendellosung_argument lam"])
def test_arrays_of_other_dtypes_are_refused(si_model, site, dtype):
    """An array argument is judged by its dtype: a numpy array of bools,
    strings, bytes, complex numbers, objects or dates is refused with the
    site's message, whatever its entries."""
    calls = {
        "bessel_j0 x": bessel_j0,
        "pendellosung_argument lam": lambda a: pendellosung_argument(
            SILICON, si_model, _TWO[0], BladeGeometry(), a),
    }
    with pytest.raises(ValueError) as info:
        calls[site](_NON_REAL_ARRAYS[dtype])
    assert str(info.value) == _REAL_SITES[site][1]


class TestFiniteValues:
    @pytest.mark.parametrize("field", ["a0", "b_nuclear", "sigma_b_nuclear", "B", "sigma_B"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_crystal_constants_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(SILICON, **{field: value})

    @pytest.mark.parametrize("field", ["b_meas", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_measurement_must_be_positive_and_finite(self, field, value):
        m = Measurement(reflection=Reflection(4, 2, 2), b_meas=3.8, sigma=0.0008)
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            replace(m, **{field: value})

    @pytest.mark.parametrize("field", ["lambda_peak", "lambda_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_window_wavelengths_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError):
            replace(SpectrumWindow(), **{field: value})


class TestRangeChecks:
    @pytest.mark.parametrize("field", ["sigma_b_nuclear", "sigma_B"])
    def test_crystal_sigmas_must_be_non_negative(self, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            replace(SILICON, **{field: -0.01})

    def test_zero_crystal_sigmas_are_allowed(self):
        assert replace(SILICON, sigma_b_nuclear=0.0, sigma_B=0.0).sigma_B == 0.0


class TestConfigSchema:
    @pytest.mark.parametrize("word, value", [("yes", True), ("On", True), ("1", True),
                                             ("TRUE", True), ("no", False), ("off", False),
                                             ("0", False), ("False", False)])
    def test_boolean_words(self, tmp_path, word, value):
        from pendellosung.cli import load_config

        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[fit]\ninclude_forward = {word}\nfree_intercept = {word}\n")
        loaded = load_config(str(cfg))
        assert loaded.include_forward is value and loaded.free_intercept is value

