"""Metamorphic relations: what any correct run satisfies, whatever a digest
recorded. The grid and tests/bits.py pin the numbers the code printed; these
relations come from the physics and the weighted line, so they also catch a
wrong number that was pinned. Each relation states its tolerance.

Reflection sets come from the default silicon survey. Every set holds two
distinct Q values ((551) and (711) share one), so no draw is refused.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from pendellosung import SILICON, error_budget, fit_bne, fit_temperature_factor, synth_measurements
from pendellosung import inference

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


def _cancellation(x, sy) -> float:
    """kappa = S Sxx / (S Sxx - Sx^2) of weighted rows: the factor by which
    the line's uncentered sums amplify rounding in its slope sigma."""
    w = 1.0 / sy**2
    s, sx, sxx = w.sum(), (w * x).sum(), (w * x * x).sum()
    return s * sxx / (s * sxx - sx * sx)


class TestBudgetScalesWithSigma:
    """Without the forward datum every row error is sigma_b_meas times a
    fixed factor, and so are both slope errors, up to rounding that each
    stage's kappa amplifies: at most 2e-15 kappa relative. On the survey
    kappa runs from 1.9 (sigma_B, nine reflections) to 8e3 (sigma_bne, two
    reflections close in 1 - f), so a flat 1e-13 holds only on large sets."""

    @settings(max_examples=100, deadline=None)
    @given(indices=_INDICES, sigma=st.floats(1e-5, 1e-2), k=st.floats(1e-2, 1e2),
           propagate=st.booleans())
    def test_sigmas_scale_linearly(self, si_model, pool, indices, sigma, k, propagate):
        refls = _reflection_set(pool, indices)
        base, scaled = (error_budget(si_model, SILICON, refls, sigma_b_meas=s,
                                     include_forward=False, propagate_sigma_B=propagate)
                        for s in (sigma, k * sigma))
        q, f, b = inference._predicted_rows(si_model, SILICON, refls)
        x, _, sy = inference._log_rows(q, b, sigma)
        assert scaled.sigma_B == pytest.approx(k * base.sigma_B, rel=2e-15 * _cancellation(x, sy))
        x, _, sy = inference._corrected_rows(q, f, b, sigma, si_model.B,
                                             base.sigma_B if propagate else 0.0)
        assert scaled.sigma_bne == pytest.approx(k * base.sigma_bne,
                                                 rel=2e-15 * _cancellation(x, sy))


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
    most 1e-10 sigma."""

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

