import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pendellosung import (
    CODATA,
    GERMANIUM,
    SILICON,
    DegenerateDesign,
    ForbiddenReflection,
    FormFactorRangeError,
    InsufficientData,
    Measurement,
    PendellosungError,
    Reflection,
    ScatteringModel,
    SpectrumWindow,
    b_meas,
    charge_radius_from_bne,
    debye_waller,
    debye_waller_correct,
    error_budget,
    extract_bne_single,
    fit_bne,
    fit_temperature_factor,
    joint_fit,
    monte_carlo_validate,
    q_over_4pi,
    scattering_model,
    slope_uncertainty,
    structure_factor_magnitude,
    survey,
    synth_measurements,
)
from pendellosung import inference
from pendellosung.inference import temperature_factor_sigmas
from pendellosung.lattice import ReflectionClass

from oracles import (
    line_exact,
    normal_cov_with_cond,
    synth_amplitudes_per_reflection,
    temperature_factor_sigmas_per_reflection,
)


@pytest.fixture(scope="module")
def new_eight(pure_plans):
    return [p.reflection for p in pure_plans if p.reflection != Reflection(1, 1, 1)]


@pytest.fixture(scope="module")
def strong_three(pure_plans):
    return [p.reflection for p in pure_plans
            if p.reflection_class is ReflectionClass.STRONG]


class TestDebyeWallerCorrect:
    def test_survey_111(self):
        q = q_over_4pi(SILICON, Reflection(1, 1, 1))
        b, s = debye_waller_correct(4.1053, 0.0008, 0.4613, 0.0027, q)
        assert b == pytest.approx(4.1538, abs=0.0005)
        assert s == pytest.approx(0.0011, abs=0.0002)
        # the temperature-factor term alone contributes ~0.0003
        _, s_nob = debye_waller_correct(4.1053, 0.0008, 0.4613, 0.0, q)
        assert s - s_nob == pytest.approx(0.0003, abs=0.00003)

    def test_value_round_trip(self, si_model):
        from pendellosung import b_meas, b_of_q

        q = 0.55
        forward = b_meas(SILICON, si_model, q)
        b, _ = debye_waller_correct(forward, 0.0008, si_model.B, 0.0027, q)
        assert b == pytest.approx(b_of_q(SILICON, si_model, q), rel=1e-12)

    @pytest.mark.parametrize("b, big_b, q", [(1.0, 1e5, 0.5), (1.0, 2900.0, 0.7),
                                             (1.0, 2900.0, 0.5), (math.nan, 0.4613, 0.5)],
                             ids=["underflow", "underflow-2900", "overflow", "nan"])
    def test_non_finite_correction_is_refused(self, b, big_b, q):
        # exp(-2900 * 0.25) is subnormal: b / dw overflows to inf.
        with pytest.raises(ValueError, match=re.escape(
                f"at B = {big_b:.6g} A^2, Q/4pi = {q:.6g} 1/A leaves b(Q) = ")):
            debye_waller_correct(b, 0.001, big_b, 0.01, q)


class TestExtractBneSingle:
    def test_silicon(self):
        bne, s = extract_bne_single(4.1538, 0.0011, 4.1507, 0.0002, 14, 0.7526)
        assert bne == pytest.approx(-0.89e-3, abs=0.02e-3)
        assert s == pytest.approx(0.32e-3, abs=0.03e-3)

    def test_germanium(self):
        q = q_over_4pi(GERMANIUM, Reflection(1, 1, 1))
        b_q, s_q = debye_waller_correct(8.0829, 0.0015, 0.57, 0.01, q)
        bne, s = extract_bne_single(b_q, s_q, 8.1929, 0.0017, 32, 0.8542)
        assert bne == pytest.approx(0.28e-3, abs=0.05e-3)
        assert s == pytest.approx(0.83e-3, abs=0.08e-3)

    def test_equal_values_give_zero(self):
        bne, _ = extract_bne_single(4.1507, 0.001, 4.1507, 0.0002, 14, 0.7526)
        assert bne == 0.0

    def test_forward_direction_degenerate(self):
        with pytest.raises(DegenerateDesign):
            extract_bne_single(4.15, 0.001, 4.1507, 0.0002, 14, 1.0)


class TestChargeRadius:
    def test_zero(self):
        assert charge_radius_from_bne(CODATA, 0.0) == (0.0, 0.0)

    def test_theory_value(self):
        r2, _ = charge_radius_from_bne(CODATA, CODATA.b_ne_theory_fm)
        assert r2 == pytest.approx(-0.1267, abs=2e-4)

    def test_survey_hypothesis(self):
        r2, _ = charge_radius_from_bne(CODATA, -1.31e-3)
        assert r2 == pytest.approx(-0.1131, abs=2e-4)

    def test_conversion_factor(self):
        assert CODATA.radius_factor_per_fm() == pytest.approx(0.011582, abs=1e-6)

    @given(st.floats(-2e-3, 2e-3), st.floats(1.0, 5.0))
    def test_exactly_linear(self, bne, a):
        r1, _ = charge_radius_from_bne(CODATA, bne)
        r2, _ = charge_radius_from_bne(CODATA, a * bne)
        assert r2 == pytest.approx(a * r1, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("bne, sigma", [
        (math.nan, 0.0), (math.inf, 0.0), (-1e-3, -1.0), (-1e-3, math.nan), (-1e-3, math.inf),
    ])
    def test_impossible_inputs_rejected(self, bne, sigma):
        with pytest.raises(ValueError, match="^b_ne must be finite, sigma_b_ne non-negative"):
            charge_radius_from_bne(CODATA, bne, sigma)


class TestSlopeUncertainty:
    def test_two_equal_points(self):
        s = slope_uncertainty([0.0, 1.0], [0.5, 0.5])
        assert s == pytest.approx(0.5 * math.sqrt(2), rel=1e-12)

    def test_shift_invariance(self):
        xs = [0.1, 0.4, 0.9, 1.3]
        sig = [0.2, 0.1, 0.3, 0.15]
        a = slope_uncertainty(xs, sig)
        b = slope_uncertainty([x + 5.0 for x in xs], sig)
        assert a == pytest.approx(b, rel=1e-9)

    def test_symmetric_design_decorrelates(self):
        # Equal sigmas symmetric about zero: Sx = 0, so slope and
        # intercept estimates are uncorrelated.
        xs = np.array([-2.0, -1.0, 1.0, 2.0])
        w = 1.0 / 0.3**2
        sx = (w * xs).sum()
        assert sx == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("xs, sigmas", [([1.0, 2.0, 3.0], [1.0, 1.0]),
                                            ([1.0, 2.0], [1.0, 1.0, 1.0]),
                                            ([1.0, 2.0], 1.0)])
    def test_one_sigma_per_abscissa(self, xs, sigmas):
        with pytest.raises(ValueError, match="^need one sigma per abscissa, got "):
            slope_uncertainty(xs, sigmas)

    def test_degenerate(self):
        with pytest.raises(DegenerateDesign):
            slope_uncertainty([1.0, 1.0, 1.0], [0.1, 0.1, 0.1])
        with pytest.raises(InsufficientData):
            slope_uncertainty([1.0], [0.1])

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           sigmas=st.lists(st.floats(1e-70, 1e70), min_size=2, max_size=12))
    @example(x=0.86, sigmas=[0.78, 0.48])  # the uncentred sums gave 2.9e7
    def test_equal_abscissas_are_refused_whatever_the_weights(self, x, sigmas):
        # Shifted by the first abscissa, equal ones centre to exactly 0.
        with pytest.raises(DegenerateDesign, match="^abscissas do not constrain a slope$"):
            slope_uncertainty([x] * len(sigmas), sigmas)

    @pytest.mark.parametrize("sigma", [0.0, -0.1])
    def test_sigmas_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigmas must be positive"):
            slope_uncertainty([0.0, 1.0], [0.1, sigma])

    @pytest.mark.parametrize("xs, sigmas", [
        ([0.0, 1.0], [0.1, math.nan]), ([0.0, 1.0], [0.1, math.inf]),
        ([0.0, math.nan], [0.1, 0.1]), ([0.0, math.inf], [0.1, 0.1]),
        ([-math.inf, 1.0], [0.1, 0.1]),
    ], ids=["nan-sigma", "inf-sigma", "nan-x", "inf-x", "-inf-x"])
    def test_non_finite_inputs_are_refused(self, xs, sigmas):
        # Unchecked, a nan sigma reads as a degenerate design and an
        # infinite one drops its point from a finite slope error.
        with pytest.raises(ValueError, match="must be (positive and )?finite"):
            slope_uncertainty(xs, sigmas)

    @pytest.mark.parametrize("seed", range(20))
    def test_is_the_line_fits_slope_sigma(self, seed):
        # The fits give the core their ordinates, the budget does not; the
        # ordinates move only the slope, so the sigma is the same bit for bit.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        xs = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3)
        sigmas = 10.0 ** rng.uniform(-4, 0, n)
        ys = rng.normal(size=n)
        slope, sigma = inference._line(xs, sigmas, ys)
        assert slope_uncertainty(xs, sigmas) == sigma
        coef, cov = np.polyfit(xs, ys, 1, w=1.0 / sigmas, cov="unscaled")
        assert slope == pytest.approx(coef[0], rel=1e-9)
        assert sigma == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-9)

    def test_overflowing_sums_are_degenerate(self):
        with pytest.raises(DegenerateDesign, match="^abscissas do not constrain a slope$"):
            slope_uncertainty([1e200, -1e200], [1.0, 1.0])
        with pytest.raises(DegenerateDesign, match="^abscissas do not constrain a slope$"), \
                np.errstate(over="ignore", invalid="ignore"):  # as its callers run it
            inference._line(np.array([1e200, -1e200]), np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("sigma", [1e-300, 1e-76, 1e76, 1e300])
    def test_weights_out_of_range_are_refused(self, sigma):
        with pytest.raises(ValueError, match=re.escape(f"sigma = {sigma:.6g} fm gives a row")):
            slope_uncertainty([0.0, 1.0], [0.1, sigma])

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("propagate", [True, False])
    def test_budget_core_is_slope_uncertainty(self, si_model, pure_plans, seed, forward,
                                              propagate, monkeypatch):
        # error_budget reduces both stages through the private core; on the
        # rows of each stage it equals the checked public function bit for bit.
        rng = np.random.default_rng(seed)
        pool = [p.reflection for p in pure_plans]
        refls = [pool[i] for i in sorted(rng.choice(len(pool), int(rng.integers(2, 10)),
                                                    replace=False))]
        sigma = 10.0 ** rng.uniform(-4, -1)
        core, seen = inference._line, []

        def spy(x, sy, *rest):
            assert rest == ()  # the budget forms no slope
            out = core(x, sy)
            seen.append((x.copy(), sy.copy(), out[1]))
            return out

        monkeypatch.setattr(inference, "_line", spy)
        budget = error_budget(si_model, SILICON, refls, sigma_b_meas=sigma,
                              include_forward=forward, propagate_sigma_B=propagate)
        monkeypatch.undo()
        (x_b, sy_b, sigma_big_b), (x_bne, sy_bne, slope_bne) = seen
        assert (budget.sigma_B, budget.sigma_bne) == (sigma_big_b, slope_bne / SILICON.Z)
        assert slope_uncertainty(x_b, sy_b) == sigma_big_b
        assert slope_uncertainty(x_bne, sy_bne) == slope_bne

    def test_matches_budget_bne_stage(self, si_model, new_eight):
        # Rebuild the b_ne-stage slope error by hand from the same inputs.
        from pendellosung import b_meas, debye_waller

        budget = error_budget(si_model, SILICON, new_eight)
        xs, sigs = [0.0], [SILICON.sigma_b_nuclear]
        for r in new_eight:
            q = q_over_4pi(SILICON, r)
            dw = debye_waller(si_model.B, q)
            b_q = b_meas(SILICON, si_model, q) / dw
            xs.append(1.0 - si_model.form_factor.f_at(q))
            sigs.append(0.0008 / dw + b_q * q * q * budget.sigma_B)
        assert slope_uncertainty(xs, sigs) / 14 == pytest.approx(budget.sigma_bne, rel=1e-12)


class TestTemperatureFactorFit:
    def test_noiseless_recovery_within_linearization_bias(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=0)
        # Default config (forward datum nearly pins the intercept): the
        # neglected Q-dependence of b(Q) biases B by about -7e-3.
        B, _ = fit_temperature_factor(ms, SILICON)
        assert B == pytest.approx(0.4613, abs=0.008)
        assert B < 0.4613  # bias sign: b(Q) grows with Q
        # With b_ne = 0 the log relation is exact.
        exact = synth_measurements(scattering_model(SILICON, 0.0), SILICON,
                                   new_eight, sigma=0.0, seed=0)
        B0, _ = fit_temperature_factor(exact, SILICON)
        assert B0 == pytest.approx(0.4613, rel=1e-10)

    def test_two_point_closed_form(self, si_model):
        rs = [Reflection(4, 2, 2), Reflection(6, 4, 2)]
        ms = synth_measurements(si_model, SILICON, rs, sigma=0.0, seed=0)
        B, _ = fit_temperature_factor(ms, SILICON, include_forward=False)
        x = [q_over_4pi(SILICON, r) ** 2 for r in rs]
        y = [math.log(m.b_meas) for m in ms]
        assert B == pytest.approx(-(y[1] - y[0]) / (x[1] - x[0]), rel=1e-12)

    def test_sigma_scaling_homogeneity(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=0)
        scaled = [Measurement(m.reflection, m.b_meas, m.sigma * 3.0) for m in ms]
        B1, s1 = fit_temperature_factor(ms, SILICON, include_forward=False)
        B2, s2 = fit_temperature_factor(scaled, SILICON, include_forward=False)
        assert B2 == pytest.approx(B1, rel=1e-12)
        assert s2 == pytest.approx(3 * s1, rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_temperature_factor([], SILICON)
        one = [Measurement(Reflection(4, 2, 2), 3.78)]
        with pytest.raises(InsufficientData):
            fit_temperature_factor(one, SILICON, include_forward=False)
        # one point plus fixed intercept works
        B, _ = fit_temperature_factor(one, SILICON, free_intercept=False)
        assert B > 0


class TestBneFit:
    def test_single_point_reproduces_direct_extraction(self):
        # One (111) measurement plus the forward value is the two-point line.
        q = q_over_4pi(SILICON, Reflection(1, 1, 1))
        from pendellosung import debye_waller

        b_meas_111 = 4.1538 * debye_waller(0.4613, q)
        ms = [Measurement(Reflection(1, 1, 1), b_meas_111, 0.0008)]
        bne, s = fit_bne(ms, SILICON, scattering_model(SILICON, 0.0).form_factor)
        direct, s_direct = extract_bne_single(
            *debye_waller_correct(b_meas_111, 0.0008, 0.4613, 0.0027, q),
            SILICON.b_nuclear, SILICON.sigma_b_nuclear, 14, 0.7526)
        assert bne == pytest.approx(direct, rel=1e-9)
        assert s == pytest.approx(s_direct, rel=1e-9)

    def test_noiseless_round_trip_argonne(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=0)
        bne, _ = fit_bne(ms, SILICON, si_model.form_factor)
        assert bne == pytest.approx(-1.31e-3, rel=1e-6)

    def test_noiseless_round_trip_dubna(self, new_eight):
        m = scattering_model(SILICON, -1.59e-3)
        ms = synth_measurements(m, SILICON, new_eight, sigma=0.0, seed=0)
        bne, _ = fit_bne(ms, SILICON, m.form_factor)
        assert bne == pytest.approx(-1.59e-3, rel=1e-6)

    def test_insufficient(self, si_model):
        with pytest.raises(InsufficientData):
            fit_bne([], SILICON, si_model.form_factor)


class TestJointFit:
    def test_noiseless_exact_recovery(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=0)
        fit = joint_fit(ms, SILICON, si_model.form_factor)
        assert fit.value("B") == pytest.approx(0.4613, rel=1e-10)
        assert fit.value("b_ne") == pytest.approx(-1.31e-3, rel=1e-10)
        assert fit.value("ln_b_nuclear") == pytest.approx(math.log(4.1507), rel=1e-10)
        assert fit.chi2 < 1e-18
        assert fit.dof == 9 - 3

    def test_linearized_stage(self, si_model, new_eight):
        # Without refinement the log-linearization bias remains: the
        # parameters land within ~1e-3 relative, i.e. the model is
        # reproduced to a few 1e-6 in amplitude.
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=0)
        lin = joint_fit(ms, SILICON, si_model.form_factor, refine=False)
        assert lin.value("B") == pytest.approx(0.4613, rel=1e-4)
        assert lin.value("b_ne") == pytest.approx(-1.31e-3, rel=5e-3)

    def test_covariance_positive_definite(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=3)
        fit = joint_fit(ms, SILICON, si_model.form_factor)
        eigvals = np.linalg.eigvalsh(fit.covariance)
        assert np.all(eigvals > 0)

    def test_singular_design(self, si_model):
        ms = [
            Measurement(Reflection(5, 5, 1), 3.41, 0.0008),
            Measurement(Reflection(7, 1, 1), 3.41, 0.0008),
        ]
        # Same q and same f: the two rows are identical; without the
        # forward datum the three-parameter system is collinear.
        with pytest.raises(DegenerateDesign):
            joint_fit(ms, SILICON, si_model.form_factor, include_forward=False)

    def test_insufficient(self, si_model):
        with pytest.raises(InsufficientData):
            joint_fit([Measurement(Reflection(4, 2, 2), 3.78)], SILICON,
                      si_model.form_factor)


# Repeated-draw validation of the fits `fit` runs. synth draws neither the
# forward datum nor B, so the fits leave the forward datum out and fit_bne
# propagates no sigma_B; every error input the fits report is then drawn.
# Bounds come from N alone: 4 standard errors of the mean for the bias
# (against the same fit on noise-free data, which also carries each fit's
# linearisation offset), 4/sqrt(2N) for the spread over the reported sigma,
# and 4 sqrt(2 dof/N) for the mean chi2 of the joint fit.
N_DRAWS = 2000
SIGMA_DRAW = 0.0008  # fm


@pytest.fixture(scope="module")
def repeated_fits(si_model, new_eight):
    """Per fit: (noise-free values, their reported sigmas, (N, k) noisy
    values); then the noisy joint fits' chi2 values, their dof and the
    joint fits themselves."""
    no_sigma_b = replace(SILICON, sigma_B=0.0)
    table = si_model.form_factor

    def fits(ms):
        joint = joint_fit(ms, SILICON, table, include_forward=False)
        return joint, {
            "temperature_factor": fit_temperature_factor(ms, SILICON, include_forward=False),
            "bne": fit_bne(ms, no_sigma_b, table, include_forward=False),
            "joint": (joint.values, [joint.sigma(p) for p in joint.param_names]),
        }

    _, exact = fits(synth_measurements(si_model, SILICON, new_eight, sigma=0.0))
    runs = [fits(synth_measurements(si_model, SILICON, new_eight, sigma=SIGMA_DRAW, seed=seed))
            for seed in range(N_DRAWS)]
    per_fit = {name: (np.atleast_1d(values), np.atleast_1d(sigmas),
                      np.array([np.atleast_1d(run[name][0]) for _, run in runs]))
               for name, (values, sigmas) in exact.items()}
    return (per_fit, np.array([joint.chi2 for joint, _ in runs]), runs[0][0].dof,
            [joint for joint, _ in runs])


class TestFitsOverRepeatedDraws:
    @pytest.mark.parametrize("name", ["temperature_factor", "bne", "joint"])
    def test_unbiased(self, repeated_fits, name):
        exact, _, noisy = repeated_fits[0][name]
        spread = noisy.std(axis=0, ddof=1)
        bias = noisy.mean(axis=0) - exact
        assert np.all(np.abs(bias) < 4.0 * spread / math.sqrt(N_DRAWS)), bias / spread

    @pytest.mark.parametrize("name", ["temperature_factor", "bne", "joint"])
    def test_reported_sigma_matches_spread(self, repeated_fits, name):
        _, sigma, noisy = repeated_fits[0][name]
        ratio = noisy.std(axis=0, ddof=1) / sigma
        assert np.all(np.abs(ratio - 1.0) < 4.0 / math.sqrt(2 * N_DRAWS)), ratio

    def test_joint_chi2_mean_is_dof(self, repeated_fits):
        _, chi2, dof, _ = repeated_fits
        assert dof == 8 - 3
        assert abs(chi2.mean() - dof) < 4.0 * math.sqrt(2.0 * dof / N_DRAWS), chi2.mean()

    def test_joint_refinement_never_stops_early(self, repeated_fits):
        # Gauss-Newton converges linearly here, a factor of about 5e-4 per
        # step, so a draw whose first step is large ends its four steps just
        # above the 1e-13 stall (66 of the 2000 draws, at 1.1e-13 to
        # 1.2e-12), far below 1e-8 of each parameter's sigma. No draw takes
        # the unconverged exit, a non-positive exact model.
        joints = repeated_fits[3]
        assert all(fit.converged for fit in joints)
        assert sum(fit.n_iter == 4 for fit in joints) > 0

    def test_joint_p_values_are_uniform(self, repeated_fits):
        p = np.array([fit.p_value for fit in repeated_fits[3]])
        assert abs(p.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / N_DRAWS), p.mean()
        assert abs((p < 0.05).mean() - 0.05) < 4.0 * math.sqrt(0.05 * 0.95 / N_DRAWS)


class TestFitDiagnostics:
    """FitResult says how the Gauss-Newton refinement ended."""

    def test_stalls_on_exact_amplitudes(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0)
        fit = joint_fit(ms, SILICON, si_model.form_factor)
        assert fit.converged and 1 <= fit.n_iter <= 4
        assert 0.0 <= fit.last_step < 1e-13

    def test_four_steps_without_a_stall(self, si_model, new_eight):
        # The last step misses the absolute stall but is negligible on the
        # scale of every parameter's sigma.
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=14)
        fit = joint_fit(ms, SILICON, si_model.form_factor, include_forward=False)
        assert (fit.n_iter, fit.converged) == (4, True)
        assert type(fit.last_step) is float and 1e-13 <= fit.last_step < 1e-9
        assert fit.last_step < 1e-8 * min(fit.sigma(p) for p in fit.param_names)

    def test_four_steps_still_moving(self, si_model, new_eight):
        # Noise of 0.02 fm starts the refinement far enough out that its
        # fourth step is still 3e-7: above the stall, and above 1e-8 of
        # every sigma, so of the largest component's own. b(Q) stays positive.
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.02, seed=2)
        fit = joint_fit(ms, SILICON, si_model.form_factor, include_forward=False)
        assert (fit.n_iter, fit.converged) == (4, False)
        assert fit.last_step > 1e-8 * max(fit.sigma(p) for p in fit.param_names)
        b_ne, ln_b = fit.value("b_ne"), fit.value("ln_b_nuclear")
        f = [si_model.form_factor.f_at(q_over_4pi(SILICON, r)) for r in new_eight]
        assert min(math.exp(ln_b) - b_ne * SILICON.Z * (1.0 - fi) for fi in f) > 0.0

    def test_non_positive_exact_model(self, si_model, new_eight):
        # Noise of 1 fm drives the linear solution to a b_ne for which
        # b(Q) = b_nuclear - b_ne Z (1 - f) is not positive at every row.
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=1.0, seed=8)
        fit = joint_fit(ms, SILICON, si_model.form_factor)
        assert (fit.n_iter, fit.converged, fit.last_step) == (0, False, None)

    def test_non_positive_exact_model_after_a_step(self, si_model, new_eight):
        # Noise of 0.1 fm lets the linear solution through, but its first
        # step would leave b(Q) non-positive at some row. The step is not
        # taken: the fit reports the linear solution with its covariance,
        # and the chi-square of its exact model.
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.1, seed=3)
        fit = joint_fit(ms, SILICON, si_model.form_factor, include_forward=False)
        assert (fit.n_iter, fit.converged, fit.last_step) == (0, False, None)
        linear = joint_fit(ms, SILICON, si_model.form_factor, include_forward=False,
                           refine=False)
        assert fit.values.tobytes() == linear.values.tobytes()
        assert fit.covariance.tobytes() == linear.covariance.tobytes()
        B, b_ne, ln_b = fit.values.tolist()
        q = [q_over_4pi(SILICON, m.reflection) for m in ms]
        bq = [math.exp(ln_b) - b_ne * SILICON.Z * (1.0 - si_model.form_factor.f_at(qi))
              for qi in q]
        assert min(bq) > 0.0
        model = [math.log(v) - B * qi * qi for v, qi in zip(bq, q)]
        chi2 = sum(((math.log(m.b_meas) - mi) * m.b_meas / m.sigma) ** 2
                   for m, mi in zip(ms, model))
        assert fit.chi2 == pytest.approx(chi2, rel=1e-12)

    def test_without_refinement(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=14)
        fit = joint_fit(ms, SILICON, si_model.form_factor, refine=False)
        assert (fit.n_iter, fit.converged, fit.last_step) == (0, True, None)

    @pytest.mark.parametrize("refine", [True, False])
    def test_p_value_is_the_chi2_survival(self, si_model, new_eight, refine):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=14)
        fit = joint_fit(ms, SILICON, si_model.form_factor, refine=refine)
        assert fit.dof == 6
        assert fit.p_value == inference._chi2_survival(fit.chi2, 6)
        assert 0.0 < fit.p_value < 1.0

    def test_no_p_value_without_degrees_of_freedom(self, si_model, new_eight):
        ms = synth_measurements(si_model, SILICON, new_eight[:3], sigma=0.0008, seed=2)
        fit = joint_fit(ms, SILICON, si_model.form_factor, include_forward=False)
        assert (fit.dof, fit.p_value) == (0, None)


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the matrices np.linalg.svd is called on, in order."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestFitCondition:
    """FitResult.condition is the 2-norm condition number of the final
    normal equations, taken from the covariance when it is read."""

    @staticmethod
    def normal_matrix(fit, ms, model, forward, free, refine):
        """J^T W J rebuilt from the rows written out: x1 = q^2, x2 = 1 - f,
        weights (b_meas / sigma)^2, and the forward datum at x1 = x2 = 0;
        J is the design without refinement, else the exact model's Jacobian
        at the fitted parameters."""
        q = np.array([q_over_4pi(SILICON, m.reflection) for m in ms])
        x1, x2 = q * q, 1.0 - np.array([model.form_factor.f_at(qi) for qi in q])
        w = (np.array([m.b_meas for m in ms]) / np.array([m.sigma for m in ms])) ** 2
        if forward:
            x1, x2 = np.r_[0.0, x1], np.r_[0.0, x2]
            w = np.r_[(SILICON.b_nuclear / SILICON.sigma_b_nuclear) ** 2, w]
        z = SILICON.Z
        if refine:
            c = fit.value("ln_b_nuclear") if free else math.log(SILICON.b_nuclear)
            bq = math.exp(c) - fit.value("b_ne") * z * x2
            cols = [-x1, -z * x2 / bq] + ([math.exp(c) / bq] if free else [])
        else:
            cols = [-x1, -z / SILICON.b_nuclear * x2] + ([np.ones_like(x1)] if free else [])
        a = np.column_stack(cols)
        return a.T @ (w[:, None] * a)

    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("forward,free", [(True, True), (False, True), (True, False),
                                              (False, False)])
    @pytest.mark.parametrize("seed", [0, 5, 14, 31])
    def test_matches_cond_of_the_normal_matrix(self, si_model, new_eight, seed, forward,
                                               free, refine):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=seed)
        fit = joint_fit(ms, SILICON, si_model.form_factor, include_forward=forward,
                        free_intercept=free, refine=refine)
        normal = self.normal_matrix(fit, ms, si_model, forward, free, refine)
        assert type(fit.condition) is float
        assert fit.condition == pytest.approx(np.linalg.cond(normal), rel=1e-6)

    def test_computed_only_when_read(self, si_model, new_eight, svd_calls):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=3)
        fit = joint_fit(ms, SILICON, si_model.form_factor)
        assert svd_calls == []
        assert fit.condition > 1.0
        assert svd_calls == [(3, 3)]


class TestChi2Survival:
    """The p-value's chi-square survival without scipy, A&S 26.4.4-26.4.5."""

    @pytest.mark.parametrize("dof", range(1, 31))
    def test_matches_scipy(self, dof):
        from scipy.stats import chi2

        x = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 300)])
        want = chi2.sf(x, dof)
        got = np.array([inference._chi2_survival(v, dof) for v in x.tolist()])
        assert got[0] == 1.0
        tail = want < 1e-290  # where exp(-chi2/2) underflows the sums
        np.testing.assert_allclose(got[~tail], want[~tail], rtol=1e-12, atol=0)
        assert (got[tail] < 1e-280).all()


class TestExtinctMeasurements:
    """A measured amplitude of an extinct reflection cannot exist: every fit
    refuses it instead of reducing it like any other row."""

    @pytest.mark.parametrize("fit", [
        lambda ms, table: fit_temperature_factor(ms, SILICON),
        lambda ms, table: fit_bne(ms, SILICON, table),
        lambda ms, table: joint_fit(ms, SILICON, table),
    ], ids=["B", "bne", "joint"])
    def test_fits_refuse_extinct_reflections(self, si_model, fit):
        ms = [Measurement(Reflection(1, 0, 0), 4.1), Measurement(Reflection(2, 2, 2), 4.0)]
        with pytest.raises(ForbiddenReflection, match=r"^\(100\) is disallowed \(\|F\| = 0\)$"):
            fit(ms, si_model.form_factor)


class TestEntryPointsRefuseExtinct:
    """The library routes that predict amplitudes for a reflection set
    refuse an extinct reflection and (000) as the fits and the budget do."""

    FORBIDDEN = [Reflection(2, 2, 2), Reflection(1, 0, 0)]
    FORWARD = [Reflection(0, 0, 0), Reflection(4, 2, 2), Reflection(6, 2, 0)]

    def test_synth_measurements(self, si_model):
        with pytest.raises(ForbiddenReflection, match=r"^\(222\) is forbidden"):
            synth_measurements(si_model, SILICON, self.FORBIDDEN)
        with pytest.raises(DegenerateDesign, match="forward beam"):
            synth_measurements(si_model, SILICON, self.FORWARD, sigma=0.0)

    @pytest.mark.parametrize("sigma", [0.0008, 0.0])
    def test_monte_carlo_validate(self, si_model, sigma):
        # The reflections are checked before sigma, which refuses 0.
        with pytest.raises(DegenerateDesign, match="forward beam"):
            monte_carlo_validate(si_model, SILICON, self.FORWARD, sigma=sigma, n_trials=100)
        extinct = [Reflection(2, 2, 2)] + self.FORWARD[1:]
        with pytest.raises(ForbiddenReflection, match=r"^\(222\) is forbidden"):
            monte_carlo_validate(si_model, SILICON, extinct, sigma=sigma, n_trials=100)

    def test_empty_set(self, si_model):
        with pytest.raises(InsufficientData, match="no reflections left"):
            synth_measurements(si_model, SILICON, [])
        with pytest.raises(InsufficientData, match="no reflections left"):
            monte_carlo_validate(si_model, SILICON, iter([]), n_trials=100)
        # No rows, no errors: synth then refuses the empty set itself.
        assert temperature_factor_sigmas(si_model, SILICON, []).shape == (0,)

    def test_temperature_factor_sigmas(self, si_model):
        with pytest.raises(ForbiddenReflection, match=r"^\(222\) is forbidden"):
            temperature_factor_sigmas(si_model, SILICON, [Reflection(2, 2, 2)])
        with pytest.raises(DegenerateDesign, match="forward beam"):
            temperature_factor_sigmas(si_model, SILICON, iter(self.FORWARD))


class TestModelAmplitudeNotPositive:
    """A b_ne hypothesis large enough that b(Q) DW <= 0 at a planned
    reflection: every route through the model amplitudes refuses it with one
    ValueError naming that reflection, before a log or a weight is taken
    (a RuntimeWarning fails the test)."""

    @pytest.fixture(scope="class")
    def big_bne(self):
        return scattering_model(SILICON, 1.0)

    @pytest.mark.parametrize("route", [error_budget, synth_measurements, monte_carlo_validate,
                                       temperature_factor_sigmas],
                             ids=lambda f: f.__name__)
    def test_refused_naming_the_reflection(self, big_bne, new_eight, route):
        with pytest.raises(ValueError, match=r"^model amplitude at \(422\) is -2\.86428 fm, "
                                             r"not positive \(b_ne = 1 fm\)$"):
            route(big_bne, SILICON, new_eight)

    def test_structure_factor_gives_the_same_refusal(self, big_bne, new_eight):
        # |F| takes the amplitude from the same check, so the message is
        # the one every planned-set route above gives.
        with pytest.raises(ValueError) as planned:
            error_budget(big_bne, SILICON, new_eight)
        with pytest.raises(ValueError) as single:
            structure_factor_magnitude(SILICON, big_bne, new_eight[0])
        assert str(single.value) == str(planned.value)

    def test_names_the_first_in_the_given_order(self, pure_plans):
        # At b_ne = 0.6 fm, (111) keeps a positive amplitude and every
        # higher order loses it.
        model = scattering_model(SILICON, 0.6)
        nine = [p.reflection for p in pure_plans]
        assert temperature_factor_sigmas(model, SILICON, nine[:1]).shape == (1,)
        with pytest.raises(ValueError, match=r"^model amplitude at \(422\) is "):
            error_budget(model, SILICON, nine)
        with pytest.raises(ValueError, match=r"^model amplitude at \(642\) is "):
            error_budget(model, SILICON, nine[::-1])


class TestLineIsExact:
    """The weighted line, reached through error_budget, slope_uncertainty,
    fit_bne and fit_temperature_factor (free and fixed intercept), against
    exact rational arithmetic on the float rows each one builds
    (oracles.line_exact): every sigma within 1e-15 relative, every slope
    within 1e-12 of its sigma, on survey subsets with the forward datum in
    and out. The fits' data are drawn at the default amplitude error: the
    log rows' slope error, up to 6e-13 of sigma_B there, grows in units of
    sigma as the amplitude error shrinks, while a sigma's relative accuracy
    does not depend on it."""

    @staticmethod
    def _near(value, sigma, exact, scale=1):
        """value and sigma against the exact (slope, sigma) divided by scale."""
        slope, exact_sigma = (None if v is None else v / scale for v in exact)
        assert abs(Fraction(float(sigma)) - exact_sigma) <= Fraction(1e-15) * exact_sigma
        if slope is not None:
            assert abs(Fraction(float(value)) - slope) <= Fraction(1e-12) * exact_sigma

    @settings(max_examples=100, deadline=None)
    @given(indices=st.sets(st.integers(0, 8), min_size=2), sigma=st.floats(1e-5, 1e-2),
           forward=st.booleans(), propagate=st.booleans())
    def test_budget_and_slope_uncertainty(self, si_model, pure_plans, indices, sigma,
                                          forward, propagate):
        refls = [pure_plans[i].reflection for i in sorted(indices)]
        assume(forward or len({r.n_sq for r in refls}) >= 2)  # (551), (711) share one Q
        budget = error_budget(si_model, SILICON, refls, sigma_b_meas=sigma,
                              include_forward=forward, propagate_sigma_B=propagate)
        q, f, b = inference._predicted_rows(si_model, SILICON, refls)
        datum = inference._forward(SILICON, forward)
        x_b, _, sy_b = inference._log_rows(q, b, sigma, datum)
        x_bne, _, sy_bne = inference._corrected_rows(q, f, b, sigma, si_model.B,
                                                     budget.sigma_B if propagate else 0.0, datum)
        for (x, sy), sigma_got, z in (((x_b, sy_b), budget.sigma_B, 1),
                                      ((x_bne, sy_bne), budget.sigma_bne, SILICON.Z)):
            exact = line_exact(x.tolist(), sy.tolist())
            self._near(None, sigma_got, exact, z)
            self._near(None, slope_uncertainty(x.tolist(), sy.tolist()), exact)

    @settings(max_examples=100, deadline=None)
    @given(indices=st.sets(st.integers(0, 8), min_size=2), seed=st.integers(0, 2**32),
           forward=st.booleans())
    def test_fits(self, si_model, pure_plans, indices, seed, forward):
        refls = [pure_plans[i].reflection for i in sorted(indices)]
        assume(len({r.n_sq for r in refls}) >= 2)
        table = si_model.form_factor
        ms = synth_measurements(si_model, SILICON, refls, seed=seed)
        q, f, b, s = inference._measured_rows(ms, SILICON, table)
        datum = inference._forward(SILICON, forward)
        x, y, sy = (v.tolist() for v in inference._corrected_rows(
            q, f, b, s, SILICON.B, SILICON.sigma_B, datum))
        value, sigma = fit_bne(ms, SILICON, table, include_forward=forward)
        self._near(-value, sigma, line_exact(x, sy, y), SILICON.Z)
        x, y, sy = (v.tolist() for v in inference._log_rows(q, b, s, datum))
        value, sigma = fit_temperature_factor(ms, SILICON, include_forward=forward)
        self._near(-value, sigma, line_exact(x, sy, y))
        x, y, sy = (v.tolist() for v in inference._log_rows(q, b, s))
        value, sigma = fit_temperature_factor(ms, SILICON, free_intercept=False)
        self._near(-value, sigma, line_exact(x, sy, y, math.log(SILICON.b_nuclear)))

    def test_light_outlier_first(self):
        # A light first row far from two heavy rows a ~ 7e-5 apart: a shift by
        # the light row's abscissa would round each heavy row by eps/2 of its
        # distance to it, and miss the exact sigma by up to 2900 eps.
        rng = np.random.default_rng(0)
        for u, a in zip(rng.uniform(-0.05, 0.05, 3000), 7e-5 * rng.uniform(0.5, 1.5, 3000)):
            x, sy = [0.3 + u, 1 - a, 1 + a], [1e4, 1.0, 1.0]
            self._near(None, slope_uncertainty(x, sy), line_exact(x, sy))


class TestDegenerateFitBranches:
    def test_joint_fit_collinear_abscissas(self, si_model):
        # Without the forward datum, two reflections give two rows for the
        # three parameters (B, b_ne, ln b_nuclear).
        ms = [Measurement(Reflection(1, 1, 1), 4.1053), Measurement(Reflection(2, 2, 0), 4.05)]
        with pytest.raises(DegenerateDesign, match="collinear fit abscissas"):
            joint_fit(ms, SILICON, si_model.form_factor, include_forward=False)

    def test_fixed_intercept_needs_a_nonzero_abscissa(self):
        x = np.zeros(2)
        with pytest.raises(DegenerateDesign, match="abscissas do not constrain a slope"):
            inference._line(x, np.full(2, 0.01), np.ones(2), fixed_intercept=1.0)

    def test_bne_needs_two_form_factor_abscissas(self, si_model):
        ms = [Measurement(Reflection(4, 2, 2), 3.78), Measurement(Reflection(4, 2, 2), 3.79)]
        with pytest.raises(InsufficientData, match="need two distinct form-factor abscissas"):
            fit_bne(ms, SILICON, si_model.form_factor, include_forward=False)


class TestErrorBudget:
    def test_strong_set(self, si_model, strong_three):
        b = error_budget(si_model, SILICON, strong_three)
        assert b.sigma_B == pytest.approx(0.00040, rel=0.25)
        assert b.sigma_bne == pytest.approx(0.11e-3, rel=0.25)

    def test_new_eight(self, si_model, new_eight):
        b = error_budget(si_model, SILICON, new_eight)
        assert b.sigma_B == pytest.approx(0.00027, rel=0.25)
        assert b.sigma_bne == pytest.approx(0.06e-3, rel=0.25)

    def test_information_monotone(self, si_model, new_eight, strong_three):
        # More reflections means tighter b_ne, and even the three strong
        # reflections beat the single corrected (111) amplitude.
        b8 = error_budget(si_model, SILICON, new_eight)
        b3 = error_budget(si_model, SILICON, strong_three)
        single = extract_bne_single(4.1538, 0.0011, 4.1507, 0.0002, 14, 0.7526)[1]
        assert b8.sigma_bne < b3.sigma_bne < single

    def test_degenerate(self, si_model):
        with pytest.raises(DegenerateDesign):
            error_budget(si_model, SILICON, [Reflection(4, 2, 2)], include_forward=False)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, si_model, new_eight, sigma):
        with pytest.raises(ValueError, match="^sigma_b_meas must be positive and finite$"):
            error_budget(si_model, SILICON, new_eight, sigma_b_meas=sigma)


class TestSynthMeasurements:
    def test_sigma_zero_exact(self, si_model, new_eight):
        from pendellosung import b_meas

        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=5)
        for m in ms:
            assert m.b_meas == b_meas(SILICON, si_model, q_over_4pi(SILICON, m.reflection))

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf, [0.0008, math.nan]])
    def test_sigma_must_be_non_negative_and_finite(self, si_model, sigma):
        with pytest.raises(ValueError, match="^sigma must be non-negative and finite$"):
            synth_measurements(si_model, SILICON, [Reflection(4, 2, 2), Reflection(6, 2, 0)],
                               sigma=sigma)

    @pytest.mark.parametrize("v", [0, 1])
    def test_sigma_forms_give_the_same_bits(self, si_model, new_eight, v):
        forms = [float(v), v, np.float64(v), np.array(v, dtype=float), [float(v)] * 8,
                 (float(v),) * 8]
        got = [[(m.b_meas.hex(), m.sigma.hex()) for m in
                synth_measurements(si_model, SILICON, new_eight, sigma=sigma, seed=3)]
               for sigma in forms]
        assert all(g == got[0] for g in got[1:])

    def test_wrong_length_sigma_keeps_numpy_message(self, si_model, new_eight):
        with pytest.raises(ValueError, match="^" + re.escape(
                "operands could not be broadcast together with remapped shapes "
                "[original->remapped]: (3,)  and requested shape (8,)") + "$"):
            synth_measurements(si_model, SILICON, new_eight, sigma=[0.001] * 3)

    def test_deterministic(self, si_model, new_eight):
        a = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=11)
        b = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=11)
        assert a == b
        c = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=12)
        assert a != c

    def test_temperature_factor_error_model(self, si_model, new_eight):
        sig = temperature_factor_sigmas(si_model, SILICON, new_eight)
        # Error bars grow with Q^2.
        q2 = [q_over_4pi(SILICON, r) ** 2 for r in new_eight]
        assert list(np.argsort(sig)) == list(np.argsort(q2))
        assert sig[0] == pytest.approx(
            4.160259 / 0.910422 * 0.910422 * q2[0] * 0.0027, rel=1e-3)


_WINDOWS = [SpectrumWindow(lambda_min=lo, lambda_max=hi, two_theta_max=tt)
            for lo in (0.3, 0.5, 0.8) for hi in (1.6, 2.5, 4.0) for tt in (60, 110, 150, 180)]


def _outcome(fn, *args, **kwargs):
    """fn's result, or its error type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("window", _WINDOWS, ids=lambda w: "{}-{}-{}".format(
    w.lambda_min, w.lambda_max, w.two_theta_max))
class TestSharedPredictedRows:
    """Synthetic amplitudes and the temperature-factor error model come
    from the fits' predicted rows and debye_waller_correct; the frozen
    per-reflection loops they replaced pin the result."""

    def test_synth_equals_per_reflection_loop(self, si_model, window):
        refls = [p.reflection for p in survey(SILICON, window).pure]
        for sigma in (0.0008, 0.0, np.linspace(1e-4, 1e-3, len(refls))):
            for seed in range(5):
                got = _outcome(synth_measurements, si_model, SILICON, refls,
                               sigma=sigma, seed=seed)
                want = _outcome(synth_amplitudes_per_reflection, si_model, SILICON, refls,
                                sigma, seed)
                if isinstance(want, tuple):  # a reflection past the f(Q) table
                    assert got == want
                else:
                    assert [m.b_meas for m in got] == want

    def test_temperature_factor_sigmas_is_the_corrected_error(self, si_model, window):
        refls = [p.reflection for p in survey(SILICON, window).pure]
        got = _outcome(temperature_factor_sigmas, si_model, SILICON, refls)
        want = _outcome(temperature_factor_sigmas_per_reflection, si_model, SILICON, refls)
        if isinstance(want, tuple):
            assert got == want
            return
        for r, s in zip(refls, got):
            q = q_over_4pi(SILICON, r)
            assert s == debye_waller_correct(b_meas(SILICON, si_model, q), 0.0, si_model.B,
                                             SILICON.sigma_B, q)[1]
        # One rounding order for the convention: at most 1 ulp from the loop.
        assert (np.abs(got - want) <= np.spacing(want)).all()


class TestSeedChecks:
    # operator.index(True) is 1, but a bool seed is a mistake, not a key.
    @pytest.mark.parametrize("seed", [1.5, -1, "3", None, True, False])
    def test_seed_must_be_a_non_negative_integer(self, si_model, new_eight, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            synth_measurements(si_model, SILICON, new_eight, seed=seed)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            monte_carlo_validate(si_model, SILICON, new_eight, n_trials=100, seed=seed)

    def test_integer_types_run_as_their_value(self, si_model, new_eight):
        assert (synth_measurements(si_model, SILICON, new_eight, seed=np.int64(4))
                == synth_measurements(si_model, SILICON, new_eight, seed=4))
        a = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=100, seed=np.uint8(4))
        b = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=100, seed=4)
        assert np.array_equal(a.empirical_cov, b.empirical_cov)

    def test_monte_carlo_seed_must_fit_a_philox_key(self, si_model, new_eight):
        # Philox keys are 128 bits; synth_measurements takes any seed.
        with pytest.raises(ValueError, match=r"^the Monte-Carlo seed must be below 2\*\*128$"):
            monte_carlo_validate(si_model, SILICON, new_eight, n_trials=100, seed=2**128)
        monte_carlo_validate(si_model, SILICON, new_eight, n_trials=100, seed=2**128 - 1)
        synth_measurements(si_model, SILICON, new_eight, seed=2**128)


class TestMonteCarlo:
    @pytest.mark.parametrize("n_trials", [inference.MAX_MC_TRIALS + 1, 10**30])
    def test_trials_past_the_cap_refused_before_drawing(self, si_model, new_eight,
                                                          monkeypatch, n_trials):
        def drawn(*args, **kwargs):
            raise AssertionError("the noise loop started")

        monkeypatch.setattr(np.random, "Philox", drawn)
        assert inference.MAX_MC_TRIALS == 10**9
        with pytest.raises(ValueError, match=r"^n_trials must be at most 1000000000$"):
            monte_carlo_validate(si_model, SILICON, new_eight, n_trials=n_trials)

    @pytest.mark.slow
    def test_matches_analytic_at_1e5(self, si_model, new_eight):
        res = monte_carlo_validate(si_model, SILICON, new_eight, sigma=0.0008,
                                   n_trials=100_000, seed=2)
        for ratio in res.sigma_ratios:
            assert ratio == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, si_model, new_eight, sigma):
        # Zero noise leaves no spread to compare; nan and inf none to draw.
        with pytest.raises(ValueError, match="^sigma must be positive and finite$"):
            monte_carlo_validate(si_model, SILICON, new_eight, sigma=sigma, n_trials=100)

    def test_seed_independence_of_estimand(self, si_model, new_eight):
        a = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=40_000, seed=1)
        b = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=40_000, seed=99)
        # ~3/sqrt(2n) statistical agreement between independent runs
        tol = 3.0 / math.sqrt(2 * 40_000)
        for ra, rb in zip(a.sigma_ratios, b.sigma_ratios):
            assert ra == pytest.approx(rb, abs=2 * tol)

    def test_reproducible(self, si_model, new_eight):
        a = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=1000, seed=7)
        b = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=1000, seed=7)
        assert np.array_equal(a.empirical_cov, b.empirical_cov)

    def test_joint_fit_covariance_consistent(self, si_model, new_eight):
        # The refined joint-fit covariance agrees with the Monte-Carlo
        # design covariance to the size of the linearization correction.
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0, seed=0)
        fit = joint_fit(ms, SILICON, si_model.form_factor)
        res = monte_carlo_validate(si_model, SILICON, new_eight, sigma=0.0008,
                                   n_trials=50_000, seed=3)
        for i, name in enumerate(("B", "b_ne")):
            ana = math.sqrt(res.analytic_cov[i, i])
            assert fit.sigma(name) == pytest.approx(ana, rel=0.01)
            emp = math.sqrt(res.empirical_cov[i, i])
            assert fit.sigma(name) == pytest.approx(emp, rel=0.03)

    def test_without_forward_anchor(self, si_model, new_eight):
        res = monte_carlo_validate(si_model, SILICON, new_eight, sigma=0.0008,
                                   n_trials=30_000, seed=11, include_forward=False)
        for ratio in res.sigma_ratios:
            assert ratio == pytest.approx(1.0, abs=0.03)


def record_draws(monkeypatch):
    """The noise draws monte_carlo_validate makes, copied in order, with
    np.random.Generator recording each standard_normal call."""
    drawn = []

    class Recording(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            out = super().standard_normal(*args, **kwargs)
            drawn.append(out.copy())
            return out

    monkeypatch.setattr(np.random, "Generator", Recording)
    return drawn


class TestChunkedMonteCarlo:
    """The Monte Carlo draws its noise in pieces of at most _MC_DRAW rows of
    one Philox stream and keeps only running sums, yet matches the
    single-block computation."""

    D = inference._MC_DRAW

    def test_draws_concatenate_to_the_single_block_draw(self, monkeypatch, si_model,
                                                        new_eight):
        single = np.random.Generator(np.random.Philox(key=5)).standard_normal((1000, 9))
        monkeypatch.setattr(inference, "_MC_DRAW", 3)
        drawn = record_draws(monkeypatch)
        monte_carlo_validate(si_model, SILICON, new_eight, n_trials=1000, seed=5)
        assert [len(d) for d in drawn] == [3] * 333 + [1]
        assert np.array_equal(np.concatenate(drawn), single)

    def test_default_draws_concatenate_to_the_single_block_draw(self, monkeypatch, si_model,
                                                                new_eight):
        n = 2 * (1 << 16) + 3
        single = np.random.Generator(np.random.Philox(key=3)).standard_normal((n, 9))
        drawn = record_draws(monkeypatch)
        monte_carlo_validate(si_model, SILICON, new_eight, n_trials=n, seed=3)
        assert [len(d) for d in drawn] == [self.D] * (n // self.D) + [3]
        assert np.array_equal(np.concatenate(drawn), single)

    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "no-forward"])
    @pytest.mark.parametrize("n_trials", [2, 3, 1000, D - 1, D, D + 1, (1 << 16) - 1, 1 << 16,
                                          (1 << 16) + 1, 2 * (1 << 16) + 1, 10 * D + 1])
    def test_covariance_equals_np_cov_of_one_block(self, si_model, new_eight, n_trials,
                                                   forward):
        sigma = 0.0008
        # The single-block reference: every trial's parameters at once.
        q, f, b_pred = inference._predicted_rows(si_model, SILICON, new_eight)
        anchor = (SILICON.b_nuclear, SILICON.sigma_b_nuclear) if forward else None
        x1, _, sy, x2 = inference._log_rows(q, b_pred, sigma, anchor,
                                            [1.0 - v for v in f])
        design = inference._joint_design(x1, x2, SILICON.Z / SILICON.b_nuclear, True)
        w = 1.0 / sy**2
        analytic = inference._normal_cov(design, w)
        estimator = analytic @ design.T @ np.diag(w)
        for seed in (0, 7, 2**128 - 1):
            res = monte_carlo_validate(si_model, SILICON, new_eight, sigma=sigma,
                                       n_trials=n_trials, seed=seed,
                                       include_forward=forward)
            assert res.analytic_cov.tobytes() == analytic.tobytes()
            rng = np.random.Generator(np.random.Philox(key=seed))
            params = (rng.standard_normal((n_trials, len(sy))) * sy) @ estimator.T
            np.testing.assert_allclose(res.empirical_cov, np.cov(params, rowvar=False),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("draw", [1, 3, 4, 6, 4096])
    @pytest.mark.parametrize("n_trials", [1000, 1001, 995, 1002])
    def test_covariance_does_not_depend_on_the_draw_size(self, monkeypatch, si_model,
                                                         new_eight, draw, n_trials):
        # The draw size groups the sums, so it may move the last bits only.
        whole = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=n_trials, seed=6)
        monkeypatch.setattr(inference, "_MC_DRAW", draw)
        drawn = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=n_trials, seed=6)
        np.testing.assert_allclose(drawn.empirical_cov, whole.empirical_cov,
                                   rtol=1e-12, atol=0)


class TestMonteCarloInPlace:
    """One noise draw and its parameters per call, reused draw by draw."""

    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "no-forward"])
    def test_memory_is_one_draw(self, si_model, new_eight, forward):
        draw = inference._MC_DRAW * (len(new_eight) + forward) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            monte_carlo_validate(si_model, SILICON, new_eight, n_trials=2 * (1 << 16) + 3,
                                 include_forward=forward)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # A second draw, or a block of 2**16 trials' parameters (1.5 MiB),
        # would not fit.
        assert peak < 2 * draw

    @pytest.mark.parametrize("n_trials", [1e5, 2.5, "100", None, 1, -5])
    def test_n_trials_must_be_an_integer_of_two_or_more(self, si_model, new_eight, n_trials):
        with pytest.raises(ValueError, match="^n_trials must be an integer >= 2$"):
            monte_carlo_validate(si_model, SILICON, new_eight, n_trials=n_trials)

    def test_integer_types_run_as_their_value(self, si_model, new_eight):
        a = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=np.int64(100))
        b = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=100)
        assert type(a.n_trials) is int and a.n_trials == 100
        assert a.empirical_cov.tobytes() == b.empirical_cov.tobytes()


def _cov_or_none(fn, a, w):
    try:
        return fn(a, w)
    except DegenerateDesign:
        return None


class TestConditionGuardMatchesFrozenCond:
    """_normal_cov takes the singular values itself; the frozen copy asks
    np.linalg.cond. Same covariance bits, same raise/no-raise verdict."""

    @staticmethod
    def accepted(a, w) -> bool:
        want = _cov_or_none(normal_cov_with_cond, a, w)
        got = _cov_or_none(inference._normal_cov, a, w)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()
        return got is not None

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_designs(self, seed):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(3, 12), rng.integers(2, 4)
        a = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)
        self.accepted(a, 10.0 ** rng.uniform(-2, 8, n))

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_deficient_designs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, (8, 3)).astype(float)
        a[:, 2] = a[:, 0] - 2.0 * a[:, 1]
        assert not self.accepted(a, np.ones(8))
        # Fewer points than parameters.
        assert not self.accepted(rng.standard_normal((2, 3)), np.ones(2))
        # Collinear real-valued columns.
        b = rng.standard_normal((8, 2))
        assert not self.accepted(np.column_stack([b, b @ rng.standard_normal(2)]),
                                 10.0 ** rng.uniform(-2, 2, 8))

    @pytest.mark.parametrize("p", [2, 3])
    def test_all_zero_designs(self, p):
        assert not self.accepted(np.zeros((6, p)), np.ones(6))
        assert not self.accepted(np.ones((6, p)), np.zeros(6))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rel", [0.99, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 1.01])
    def test_condition_number_at_the_cap(self, seed, rel):
        # Orthonormal columns graded so that cond(A^T W A) = 1e14 * rel,
        # then scaled as a whole, which leaves the condition number alone.
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        s = np.array([1.0, 0.3, 1.0 / (1e14 * rel)])
        a = basis * np.sqrt(s * 10.0 ** rng.uniform(-4, 4))
        assert self.accepted(a, np.ones(6)) == (rel < 1)


class TestConditionGuardProperty:
    """_normal_cov decides most designs from the Frobenius bound
    ||M||_F ||M^-1||_F on the inverse it computed and takes the singular values
    only where the bound cannot; over 2- and 3-column designs with condition
    numbers on both sides of 1e8 and 1e14, at scales whose normal matrix is
    subnormal or overflows, it matches the frozen np.linalg.cond guard byte
    for byte and verdict for verdict."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3]),
           log_kappa=st.floats(0.0, 17.0), log_scale=st.floats(-165.0, 165.0),
           rank_deficient=st.booleans())
    @example(seed=0, p=3, log_kappa=8.0, log_scale=0.0, rank_deficient=False)
    @example(seed=1, p=2, log_kappa=14.0, log_scale=-160.0, rank_deficient=False)
    @example(seed=2, p=3, log_kappa=1.0, log_scale=160.0, rank_deficient=False)
    @example(seed=3, p=3, log_kappa=0.0, log_scale=-80.0, rank_deficient=True)
    # Condition numbers 1e7 to 3e8 straddle the bound's cut: the first four
    # designs pass it, the next two take the singular values.
    @example(seed=4, p=3, log_kappa=7.0, log_scale=0.0, rank_deficient=False)
    @example(seed=9, p=3, log_kappa=math.log10(3e7), log_scale=0.0, rank_deficient=False)
    @example(seed=6, p=3, log_kappa=8.0, log_scale=0.0, rank_deficient=False)
    @example(seed=7, p=2, log_kappa=math.log10(3e8), log_scale=40.0, rank_deficient=False)
    @example(seed=10, p=3, log_kappa=8.0, log_scale=0.0, rank_deficient=False)
    @example(seed=11, p=3, log_kappa=math.log10(3e8), log_scale=0.0, rank_deficient=False)
    # One squared norm overflows while the other is subnormal, or ||M||_F^2 is
    # 0; the last passes the bound with ||M||_F^2 just above the subnormal range.
    @example(seed=12, p=2, log_kappa=0.0, log_scale=78.0, rank_deficient=False)
    @example(seed=15, p=3, log_kappa=0.0, log_scale=77.0, rank_deficient=False)
    @example(seed=13, p=3, log_kappa=0.0, log_scale=-78.0, rank_deficient=False)
    @example(seed=14, p=2, log_kappa=1.0, log_scale=-82.0, rank_deficient=False)
    @example(seed=16, p=2, log_kappa=0.0, log_scale=-77.0, rank_deficient=False)
    def test_matches_frozen_cond(self, seed, p, log_kappa, log_scale, rank_deficient):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(p, 10))
        basis, _ = np.linalg.qr(rng.standard_normal((n, p)))
        a = basis * np.sqrt(np.geomspace(1.0, 10.0 ** -log_kappa, p))
        if rank_deficient:
            a[:, -1] = a[:, 0] - 2.0 * a[:, 1] if p == 3 else 3.0 * a[:, 0]
        with np.errstate(all="ignore"):  # the overflowing scales warn in A^T W A
            TestConditionGuardMatchesFrozenCond.accepted(a * 10.0 ** log_scale,
                                                         10.0 ** rng.uniform(-1, 1, n))

    def test_fits_of_the_new_reflections_take_no_svd(self, si_model, new_eight, svd_calls):
        ms = synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=3)
        for forward in (True, False):
            for free in (True, False):
                fit = joint_fit(ms, SILICON, si_model.form_factor, include_forward=forward,
                                free_intercept=free)
                assert fit.n_iter >= 1
        monte_carlo_validate(si_model, SILICON, new_eight, n_trials=2)
        assert svd_calls == []

    def test_svd_decides_near_the_cap(self, svd_calls):
        # cond(A^T A) = 1e13: the bound cannot vouch for it, the SVD accepts.
        basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))
        a, w = basis * np.sqrt([1.0, 0.3, 1e-13]), np.ones(6)
        cov = inference._normal_cov(a, w)
        assert svd_calls == [(3, 3)]
        assert cov.tobytes() == normal_cov_with_cond(a, w).tobytes()


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "no-forward"])
class TestSharedReduction:
    """The fits, the projected budget and the Monte Carlo reduce the same
    weighted rows, so on noiseless data their uncertainties agree exactly."""

    @pytest.fixture(scope="class")
    def exact(self, si_model, new_eight):
        return synth_measurements(si_model, SILICON, new_eight, sigma=0.0)

    def test_joint_covariance_is_mc_analytic(self, si_model, new_eight, exact, forward):
        fit = joint_fit(exact, SILICON, si_model.form_factor,
                        include_forward=forward, refine=False)
        mc = monte_carlo_validate(si_model, SILICON, new_eight, n_trials=2,
                                  include_forward=forward)
        assert np.array_equal(fit.covariance, mc.analytic_cov)

    def test_temperature_factor_sigma_is_budget_sigma_B(self, si_model, new_eight,
                                                         exact, forward):
        _, sigma_B = fit_temperature_factor(exact, SILICON, include_forward=forward)
        budget = error_budget(si_model, SILICON, new_eight, include_forward=forward)
        assert sigma_B == budget.sigma_B

    def test_bne_sigma_is_budget_sigma_bne(self, si_model, new_eight, exact, forward):
        budget = error_budget(si_model, SILICON, new_eight, include_forward=forward)
        crystal = replace(SILICON, B=si_model.B, sigma_B=budget.sigma_B)
        _, sigma = fit_bne(exact, crystal, si_model.form_factor, include_forward=forward)
        assert sigma == budget.sigma_bne


class TestCrystalIsTheOnlySource:
    """b_nuclear, B and their sigmas come from the CrystalSpec alone, where
    they are validated; a what-if value goes through dataclasses.replace."""

    @pytest.fixture(scope="class")
    def noisy(self, si_model, new_eight):
        return synth_measurements(si_model, SILICON, new_eight, sigma=0.0008, seed=5)

    @pytest.mark.parametrize("call", [
        lambda ms, m: fit_bne(ms, SILICON, m.form_factor, b_nuclear=0.0),
        lambda ms, m: fit_bne(ms, SILICON, m.form_factor, B=0.47, sigma_B=0.004),
        lambda ms, m: joint_fit(ms, SILICON, m.form_factor, b_nuclear=0.0),
        lambda ms, m: fit_temperature_factor(ms, SILICON, b_nuclear=0.0),
        lambda ms, m: fit_temperature_factor(ms, SILICON, sigma_b_nuclear=0.5),
        lambda ms, m: temperature_factor_sigmas(m, SILICON, [Reflection(4, 2, 2)],
                                                sigma_B=-1.0),
    ], ids=["fit_bne-b_nuclear", "fit_bne-B", "joint_fit-b_nuclear",
            "fit_temperature_factor-b_nuclear", "fit_temperature_factor-sigma",
            "temperature_factor_sigmas-sigma_B"])
    def test_per_call_constants_rejected(self, si_model, noisy, call):
        with pytest.raises(TypeError):
            call(noisy, si_model)

    def test_fit_options_are_keyword_only(self, si_model, noisy):
        # A positional b_nuclear written for the old signatures must not
        # land in include_forward.
        with pytest.raises(TypeError):
            fit_temperature_factor(noisy, SILICON, 4.15)
        with pytest.raises(TypeError):
            fit_bne(noisy, SILICON, si_model.form_factor, 4.15)
        with pytest.raises(TypeError):
            joint_fit(noisy, SILICON, si_model.form_factor, 4.15)

    def test_model_holds_only_the_hypothesis(self):
        assert [f.name for f in fields(ScatteringModel)] == ["b_ne", "B", "form_factor"]

    def test_model_carries_no_crystal_constants(self, si_model, new_eight):
        # A model built from a crystal with other b_nuclear and Z, used with
        # SILICON, gives SILICON's results bit for bit.
        other = scattering_model(replace(SILICON, b_nuclear=9.0, Z=30), si_model.b_ne)
        assert other == si_model
        assert (error_budget(other, SILICON, new_eight)
                == error_budget(si_model, SILICON, new_eight))
        assert (synth_measurements(other, SILICON, new_eight, seed=5)
                == synth_measurements(si_model, SILICON, new_eight, seed=5))
        for r in new_eight:
            assert (structure_factor_magnitude(SILICON, other, r)
                    == structure_factor_magnitude(SILICON, si_model, r))

    @pytest.mark.parametrize("forward, expected", [
        (True, (-0.002624229037873785, 0.00026568434770201857)),
        (False, (-0.00620188094595464, 0.0028929966031036253)),
    ], ids=["forward", "no-forward"])
    def test_replaced_crystal_equals_former_override(self, si_model, noisy,
                                                     forward, expected):
        # First recorded from fit_bne(ms, SILICON, table, B=0.47, sigma_B=0.004)
        # before the per-call overrides were removed; re-recorded when the line
        # was centred, which moved the values to within 2 ulp of the exact
        # answer (the former ones missed it by 1.9e-14 and 5.1e-13 relative).
        crystal = replace(SILICON, B=0.47, sigma_B=0.004)
        got = fit_bne(noisy, crystal, si_model.form_factor, include_forward=forward)
        assert got == expected
        q, f, b, s = inference._measured_rows(noisy, crystal, si_model.form_factor)
        x, y, sy = inference._corrected_rows(q, f, b, s, crystal.B, crystal.sigma_B,
                                             inference._forward(crystal, forward))
        slope, sigma = line_exact(x.tolist(), sy.tolist(), y.tolist())
        for value, exact in zip(got, (-slope / crystal.Z, sigma / crystal.Z)):
            assert abs(Fraction(float(value)) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("call", [
        lambda ms, m, c, fwd: fit_temperature_factor(ms, c, include_forward=fwd),
        lambda ms, m, c, fwd: fit_bne(ms, c, m.form_factor, include_forward=fwd),
        lambda ms, m, c, fwd: joint_fit(ms, c, m.form_factor, include_forward=fwd),
        lambda ms, m, c, fwd: error_budget(m, c, [r.reflection for r in ms],
                                           include_forward=fwd),
        lambda ms, m, c, fwd: monte_carlo_validate(m, c, [r.reflection for r in ms],
                                                   n_trials=100, include_forward=fwd),
    ], ids=["fit_temperature_factor", "fit_bne", "joint_fit", "error_budget",
            "monte_carlo_validate"])
    def test_zero_forward_sigma_is_a_typed_error(self, si_model, noisy, call):
        # The forward datum with a zero sigma would carry infinite weight.
        crystal = replace(SILICON, sigma_b_nuclear=0.0)
        with pytest.raises(DegenerateDesign, match="sigma_b_nuclear"):
            call(noisy, si_model, crystal, True)
        call(noisy, si_model, crystal, False)


class TestMeasurementInvariants:
    def test_positive_sigma_required(self):
        with pytest.raises(ValueError):
            Measurement(Reflection(1, 1, 1), 4.1, 0.0)

    def test_positive_amplitude_required(self):
        with pytest.raises(ValueError):
            Measurement(Reflection(1, 1, 1), -4.1, 0.1)

    def test_numbers_enter_as_floats(self):
        m = Measurement(Reflection(1, 1, 1), 4, np.float64(0.5))
        assert (type(m.b_meas), type(m.sigma)) == (float, float)
        assert m == Measurement(Reflection(1, 1, 1), 4.0, 0.5)


_HUGE = 10**400  # an int that float() cannot take
_DWC = "b_meas, sigma_b_meas and sigma_B must lie in the float range"
_EXTRACT = "amplitudes, errors, Z and f must lie in the float range"
_SLOPE = "abscissas and sigmas must be finite"


@pytest.mark.parametrize("enter, error, message", [
    (lambda m, r: error_budget(m, SILICON, r, sigma_b_meas=_HUGE), ValueError,
     "sigma_b_meas must be positive and finite"),
    (lambda m, r: synth_measurements(m, SILICON, r, sigma=_HUGE), ValueError,
     "sigma must be non-negative and finite"),
    (lambda m, r: synth_measurements(m, SILICON, r, sigma=[1e-3] * 7 + [_HUGE]), ValueError,
     "sigma must be non-negative and finite"),
    (lambda m, r: monte_carlo_validate(m, SILICON, r, sigma=_HUGE), ValueError,
     "sigma must be positive and finite"),
    (lambda m, r: Measurement(r[0], 3.0, _HUGE), ValueError, "sigma must be positive and finite"),
    (lambda m, r: Measurement(r[0], _HUGE, 3.0), ValueError, "b_meas must be positive and finite"),
    (lambda m, r: m.form_factor.f_at(_HUGE), FormFactorRangeError,
     "Si: q=inf beyond tabulated domain (max 0.68898 + 5% margin)"),
    (lambda m, r: m.form_factor.f_at(-_HUGE), FormFactorRangeError,
     "negative momentum transfer q=-inf"),
    (lambda m, r: debye_waller(0.46, _HUGE), ValueError, "Q/4pi must lie in the float range"),
    (lambda m, r: debye_waller_correct(_HUGE, 0.001, 0.46, 0.01, 0.5), ValueError, _DWC),
    (lambda m, r: debye_waller_correct(3.8, _HUGE, 0.46, 0.01, 0.5), ValueError, _DWC),
    (lambda m, r: debye_waller_correct(3.8, 0.001, 0.46, _HUGE, 0.5), ValueError, _DWC),
    (lambda m, r: extract_bne_single(_HUGE, 0.001, 4.15, 0.001, 14, 0.5), ValueError, _EXTRACT),
    (lambda m, r: extract_bne_single(3.8, _HUGE, 4.15, 0.001, 14, 0.5), ValueError, _EXTRACT),
    (lambda m, r: extract_bne_single(3.8, 0.001, _HUGE, 0.001, 14, 0.5), ValueError, _EXTRACT),
    (lambda m, r: extract_bne_single(3.8, 0.001, 4.15, 0.001, _HUGE, 0.5), ValueError, _EXTRACT),
    (lambda m, r: extract_bne_single(3.8, 0.001, 4.15, 0.001, 14, -_HUGE), ValueError, _EXTRACT),
    (lambda m, r: slope_uncertainty([0.1, _HUGE], [0.01, 0.01]), ValueError, _SLOPE),
    (lambda m, r: slope_uncertainty([0.1, 0.2], [0.01, _HUGE]), ValueError, _SLOPE),
], ids=["error_budget", "synth", "synth-list", "monte_carlo", "Measurement-sigma",
        "Measurement-b_meas", "f_at", "f_at-negative", "debye_waller-q", "correct-b_meas",
        "correct-sigma", "correct-sigma_B", "extract-b_q", "extract-sigma", "extract-b_nuclear",
        "extract-z", "extract-f", "slope-abscissa", "slope-sigma"])
def test_an_int_past_the_float_range_is_refused(si_model, new_eight, enter, error, message):
    # Each entry point converts with float(), or catches the OverflowError of
    # the first arithmetic on the int, and refuses with its own error.
    with pytest.raises(error) as refused:
        enter(si_model, new_eight)
    assert str(refused.value) == message


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(-2e-3, 2e-3))
def test_round_trip_property_joint(BB, bne):
    """Noiseless joint fits recover any generating pair to ~1e-9."""
    model = scattering_model(SILICON, bne, B=BB)
    refls = [Reflection(4, 2, 2), Reflection(5, 1, 1), Reflection(6, 2, 0),
             Reflection(6, 4, 2)]
    ms = synth_measurements(model, SILICON, refls, sigma=0.0, seed=0)
    fit = joint_fit(ms, SILICON, model.form_factor)
    assert fit.value("B") == pytest.approx(BB, rel=1e-9, abs=1e-12)
    assert fit.value("b_ne") == pytest.approx(bne, rel=1e-9, abs=1e-12)


class TestForwardWeightRange:
    @pytest.mark.parametrize("s0", [1e-300, 1e300])
    def test_forward_datum_out_of_range_is_refused(self, si_model, new_eight, s0):
        crystal = replace(SILICON, sigma_b_nuclear=s0)
        ms = synth_measurements(si_model, crystal, new_eight, seed=1)
        calls = [lambda: error_budget(si_model, crystal, new_eight),
                 lambda: monte_carlo_validate(si_model, crystal, new_eight, n_trials=10),
                 lambda: joint_fit(ms, crystal, si_model.form_factor),
                 lambda: fit_bne(ms, crystal, si_model.form_factor),
                 lambda: fit_temperature_factor(ms, crystal)]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"sigma_b_nuclear = {s0:g} fm")):
                call()
        assert error_budget(si_model, crystal, new_eight, include_forward=False).sigma_B > 0


# Log-uniform over 1e-320..1e300, so each decade of the float range is drawn
# alike (the low end is subnormal).
_SPAN = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)


class TestWeightRangeProperty:
    """Amplitude errors, temperature factors and b_ne hypotheses across the
    float range: the budget, the joint fit and the Monte Carlo each return
    finite values or refuse with a typed error, and never warn."""

    @settings(max_examples=300, deadline=None)
    @given(what=st.sampled_from(["budget", "joint_fit", "mc"]), sigma=_SPAN, big_b=_SPAN,
           b_ne=_SPAN, b_ne_sign=st.sampled_from([-1.0, 1.0]), forward=st.booleans())
    @example(what="budget", sigma=1e-300, big_b=0.4613, b_ne=1.31e-3, b_ne_sign=-1.0,
             forward=True)
    @example(what="joint_fit", sigma=1e300, big_b=0.4613, b_ne=1.31e-3, b_ne_sign=-1.0,
             forward=True)
    @example(what="mc", sigma=1e-300, big_b=0.4613, b_ne=1.31e-3, b_ne_sign=-1.0,
             forward=False)
    @example(what="budget", sigma=0.0008, big_b=1000.0, b_ne=1.31e-3, b_ne_sign=-1.0,
             forward=True)
    def test_finite_or_refused(self, new_eight, what, sigma, big_b, b_ne, b_ne_sign, forward):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                model = scattering_model(SILICON, b_ne_sign * b_ne, B=big_b)
                if what == "budget":
                    r = error_budget(model, SILICON, new_eight, sigma_b_meas=sigma,
                                     include_forward=forward)
                    values = [r.sigma_B, r.sigma_bne]
                elif what == "mc":
                    r = monte_carlo_validate(model, SILICON, new_eight, sigma=sigma,
                                             n_trials=20, include_forward=forward)
                    values = [*r.analytic_cov.ravel(), *r.empirical_cov.ravel()]
                else:
                    exact = synth_measurements(model, SILICON, new_eight, sigma=0.0)
                    ms = [Measurement(m.reflection, m.b_meas, sigma) for m in exact]
                    r = joint_fit(ms, SILICON, model.form_factor, include_forward=forward)
                    values = [*r.values, *r.covariance.ravel(), r.chi2]
            except (PendellosungError, ValueError):
                return
        assert all(math.isfinite(v) for v in values)


# 0, or log-uniform over 1e-3..1e6 A^2: the Debye-Waller factor of a Si
# reflection underflows to 0 from B of about 2000 A^2 on.
_B_SPAN = st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0**e))


class TestTemperatureFactorRangeProperty:
    """Crystal and model temperature factors up to 1e6 A^2: the fits, the
    budget and the temperature-factor sigmas each return finite values or
    refuse with a typed error; none divides by zero or warns."""

    @settings(max_examples=300, deadline=None)
    @given(what=st.sampled_from(["fit_bne", "fit_temperature_factor", "joint_fit", "sigmas",
                                 "budget"]),
           crystal_b=_B_SPAN, model_b=_B_SPAN, forward=st.booleans())
    @example(what="fit_bne", crystal_b=1e5, model_b=0.4613, forward=True)
    @example(what="fit_bne", crystal_b=2900.0, model_b=0.4613, forward=False)
    def test_finite_or_refused(self, new_eight, what, crystal_b, model_b, forward):
        crystal = replace(SILICON, B=crystal_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                model = scattering_model(crystal, CODATA.b_ne_argonne_fm, B=model_b)
                if what == "sigmas":
                    values = temperature_factor_sigmas(model, crystal, new_eight).tolist()
                elif what == "budget":
                    r = error_budget(model, crystal, new_eight, include_forward=forward)
                    values = [r.sigma_B, r.sigma_bne]
                else:
                    ms = synth_measurements(model, crystal, new_eight, sigma=0.0)
                    if what == "fit_bne":
                        values = fit_bne(ms, crystal, model.form_factor, include_forward=forward)
                    elif what == "fit_temperature_factor":
                        values = fit_temperature_factor(ms, crystal, include_forward=forward)
                    else:
                        r = joint_fit(ms, crystal, model.form_factor, include_forward=forward)
                        values = [*r.values, *r.covariance.ravel(), r.chi2]
            except (PendellosungError, ValueError):
                return
        assert all(math.isfinite(v) for v in values)
