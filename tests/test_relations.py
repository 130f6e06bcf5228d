"""Metamorphic relations: what any correct run satisfies, whatever a digest
recorded. The grid and tests/bits.py pin the numbers the code printed; these
relations come from the physics and the weighted line, so they also catch a
wrong number that was pinned. Each relation states its tolerance.

Reflection sets come from the default silicon survey. Every set holds two
distinct Q values ((551) and (711) share one), so no draw is refused.
Windows keep lambda_peak >= 0.2 A, so the survey walk stays inside
planner.MAX_WALK_N_SQ (silicon's bound is passed below about 0.11 A).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pendellosung import (
    CODATA,
    SILICON,
    BladeGeometry,
    SpectrumWindow,
    charge_radius_from_bne,
    error_budget,
    fit_bne,
    fit_temperature_factor,
    joint_fit,
    pendellosung_argument,
    survey,
    synth_measurements,
)

_CONFIGS = [(forward, propagate) for forward in (True, False) for propagate in (True, False)]


@pytest.fixture(scope="module")
def pool(pure_plans):
    refls = [p.reflection for p in pure_plans]
    assert len(refls) == 9  # the strategies below index the nine
    return refls


def _reflection_set(pool, indices):
    """The pool reflections at indices, in pool order; rejected unless they
    hold two distinct Q values."""
    refls = [pool[i] for i in sorted(indices)]
    assume(len({r.n_sq for r in refls}) >= 2)
    return refls


_INDICES = st.sets(st.integers(0, 8), min_size=2)


class TestBudgetScalesWithSigma:
    """Without the forward datum every row error is sigma_b_meas times a
    fixed factor, and so are both slope errors, up to rounding: at most
    2e-15 relative, however close the reflections lie in Q or 1 - f."""

    @settings(max_examples=100, deadline=None)
    @given(indices=_INDICES, sigma=st.floats(1e-5, 1e-2), k=st.floats(1e-2, 1e2),
           propagate=st.booleans())
    def test_sigmas_scale_linearly(self, si_model, pool, indices, sigma, k, propagate):
        refls = _reflection_set(pool, indices)
        base, scaled = (error_budget(si_model, SILICON, refls, sigma_b_meas=s,
                                     include_forward=False, propagate_sigma_B=propagate)
                        for s in (sigma, k * sigma))
        assert scaled.sigma_B == pytest.approx(k * base.sigma_B, rel=2e-15, abs=0)
        assert scaled.sigma_bne == pytest.approx(k * base.sigma_bne, rel=2e-15, abs=0)


class TestAddingAReflection:
    """A row more adds information to a weighted line, so no projected sigma
    grows: the ratio stays at most 1 + 1e-12, with and without the forward
    datum and the sigma_B propagation."""

    @settings(max_examples=200, deadline=None)
    @given(indices=_INDICES.filter(lambda s: len(s) < 9), extra=st.integers(0, 8),
           sigma=st.floats(1e-5, 1e-2), config=st.sampled_from(_CONFIGS))
    def test_never_raises_a_sigma(self, si_model, pool, indices, extra, sigma, config):
        assume(extra not in indices)
        refls = _reflection_set(pool, indices)
        forward, propagate = config
        base, more = (error_budget(si_model, SILICON, rs, sigma_b_meas=sigma,
                                   include_forward=forward, propagate_sigma_B=propagate)
                      for rs in (refls, refls + [pool[extra]]))
        assert more.sigma_B <= base.sigma_B * (1 + 1e-12)
        assert more.sigma_bne <= base.sigma_bne * (1 + 1e-12)


class TestMeasurementOrder:
    """The weighted sums do not depend on the row order beyond rounding:
    reordering the measurements moves each fitted value and its sigma by at
    most 1e-10 sigma; joint_fit's sigmas by at most 1e-10 + eps * condition
    relative."""

    @staticmethod
    def _moved(fit, ms, permuted):
        (value, sigma), (value_p, sigma_p) = fit(ms), fit(permuted)
        return max(abs(value_p - value), abs(sigma_p - sigma)) / sigma

    @settings(max_examples=100, deadline=None)
    @given(indices=_INDICES, seed=st.integers(0, 2**32), forward=st.booleans(),
           data=st.data())
    def test_fits_do_not_depend_on_order(self, si_model, pool, indices, seed, forward, data):
        refls = _reflection_set(pool, indices)
        ms = synth_measurements(si_model, SILICON, refls, seed=seed)
        permuted = data.draw(st.permutations(ms))
        table = si_model.form_factor
        fits = [
            lambda m: fit_bne(m, SILICON, table, include_forward=forward),
            lambda m: fit_temperature_factor(m, SILICON, include_forward=forward),
            lambda m: fit_temperature_factor(m, SILICON, free_intercept=False),
        ]
        for fit in fits:
            assert self._moved(fit, ms, permuted) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(indices=_INDICES, seed=st.integers(0, 2**32), forward=st.booleans(),
           free=st.booleans(), data=st.data())
    def test_joint_fit_does_not_depend_on_order(self, si_model, pool, indices, seed, forward,
                                                free, data):
        refls = _reflection_set(pool, indices)
        assume(len({r.n_sq for r in refls}) + forward >= 2 + free)  # a row per parameter
        ms = synth_measurements(si_model, SILICON, refls, seed=seed)
        permuted = data.draw(st.permutations(ms))
        base, other = (joint_fit(m, SILICON, si_model.form_factor, include_forward=forward,
                                 free_intercept=free) for m in (ms, permuted))
        sigma = np.sqrt(np.diag(base.covariance))
        assert (np.abs(other.values - base.values) <= 1e-10 * sigma).all()
        # The covariance inverts the normal matrix, whose reordered sums
        # differ by rounding that its condition number amplifies: without the
        # forward datum a free intercept reaches condition 4e7 and moves
        # sigma by 6e-10 relative.
        moved = 1e-10 + np.finfo(float).eps * base.condition
        assert (np.abs(np.sqrt(np.diag(other.covariance)) - sigma) <= moved * sigma).all()


class TestReflectionOrder:
    """error_budget of a permuted reflection set sums its rows in another
    order and shifts them by another first abscissa: sigma_B moves by at
    most 2e-15 relative and sigma_bne, whose row errors carry sigma_B, by at
    most 4e-15, in all four forward/propagation configurations."""

    @settings(max_examples=200, deadline=None)
    @given(indices=_INDICES, sigma=st.floats(1e-5, 1e-2), config=st.sampled_from(_CONFIGS),
           data=st.data())
    def test_budget_does_not_depend_on_order(self, si_model, pool, indices, sigma, config, data):
        refls = _reflection_set(pool, indices)
        permuted = data.draw(st.permutations(refls))
        forward, propagate = config
        base, other = (error_budget(si_model, SILICON, rs, sigma_b_meas=sigma,
                                    include_forward=forward, propagate_sigma_B=propagate)
                       for rs in (refls, permuted))
        assert other.sigma_B == pytest.approx(base.sigma_B, rel=2e-15, abs=0)
        assert other.sigma_bne == pytest.approx(base.sigma_bne, rel=4e-15, abs=0)


@st.composite
def _windows(draw):
    lam_min = draw(st.floats(0.2, 2.0))
    lam_max = lam_min + draw(st.floats(0.05, 3.0))
    two_theta_min = draw(st.floats(0.0, 60.0))
    return SpectrumWindow(lambda_min=lam_min, lambda_max=lam_max,
                          lambda_peak=draw(st.floats(0.2, 3.0)), two_theta_min=two_theta_min,
                          two_theta_max=draw(st.floats(two_theta_min + 5.0, 180.0)))


def _strict_verdicts(crystal, window):
    """(reflection, strict verdict, contaminant count) per surveyed plan."""
    return [(p.reflection, p.pure, len(p.contaminants))
            for p in survey(crystal, window, strict=True).plans]


class TestLatticeScaling:
    """Bragg's law sees only lambda / a0: scaling a0 and every window
    wavelength by a power of two k scales each wavelength window and 1/Q
    exactly, so the strict survey keeps its reflections, verdicts and
    contaminant counts exactly (tolerance 0)."""

    @settings(max_examples=60, deadline=None)
    @given(window=_windows())
    def test_survey_is_invariant(self, window):
        base = _strict_verdicts(SILICON, window)
        for k in (0.25, 0.5, 2.0, 4.0):
            scaled = replace(window, lambda_min=k * window.lambda_min,
                             lambda_max=k * window.lambda_max,
                             lambda_peak=k * window.lambda_peak)
            assert _strict_verdicts(replace(SILICON, a0=k * SILICON.a0), scaled) == base


class TestNarrowingTheSpectrum:
    """A narrower lambda range shrinks every co-reflection band, so a
    reflection that is strict-pure under a window stays strict-pure under
    any narrower one that still surveys it (exact: verdicts are booleans)."""

    @settings(max_examples=100, deadline=None)
    @given(window=_windows(), cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_no_pure_reflection_turns_contaminated(self, window, cuts):
        lo, hi = window.lambda_min, window.lambda_max
        a, b = sorted(min(hi, lo + c * (hi - lo)) for c in cuts)
        assume(a < b)
        narrow = replace(window, lambda_min=a, lambda_max=b)
        pure = {r for r, strict_pure, _ in _strict_verdicts(SILICON, window) if strict_pure}
        for r, strict_pure, _ in _strict_verdicts(SILICON, narrow):
            assert strict_pure or r not in pure


class TestExactScalings:
    """<r^2> = b_ne / factor is linear in b_ne, and the J0 argument
    t |F| lambda / (a0^3 cos theta) is linear in the thickness t: each at
    most 1e-15 relative. Values stay normal floats: a subnormal b_ne
    carries too few digits for any relative bound."""

    @given(b_ne=st.floats(1e-6, 1e-2) | st.floats(-1e-2, -1e-6) | st.just(0.0),
           sigma=st.floats(1e-6, 1e-3) | st.just(0.0), k=st.floats(0.1, 10.0))
    def test_radius_is_linear_in_bne(self, b_ne, sigma, k):
        r2, s2 = charge_radius_from_bne(CODATA, b_ne, sigma)
        r2_k, s2_k = charge_radius_from_bne(CODATA, k * b_ne, k * sigma)
        assert r2_k == pytest.approx(k * r2, rel=1e-15, abs=0)
        assert s2_k == pytest.approx(k * s2, rel=1e-15, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(index=st.integers(0, 8), t=st.floats(0.01, 5.0), k=st.floats(0.1, 10.0),
           u=st.floats(0.0, 1.0))
    def test_fringe_argument_is_linear_in_thickness(self, si_model, pure_plans, index, t, k,
                                                    u):
        plan = pure_plans[index]
        lo, hi = plan.lambda_window
        lam = np.array([lo, lo + u * (hi - lo), hi])
        arg, arg_k = (pendellosung_argument(SILICON, si_model, plan.reflection,
                                            BladeGeometry(th), lam)
                      for th in (t, k * t))
        np.testing.assert_allclose(arg_k, k * arg, rtol=1e-15, atol=0)
