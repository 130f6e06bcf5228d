import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pendellosung import (
    GERMANIUM,
    SILICON,
    SILICON_TABLE,
    CrystalSpec,
    NoReflection,
    Reflection,
    ReflectionClass,
    b_meas,
    b_of_q,
    classify,
    debye_waller,
    debye_waller_correct,
    q_over_4pi,
    scattering_model,
    structure_factor_magnitude,
)
from pendellosung import lattice
from pendellosung.lattice import _class_of

Q111 = math.sqrt(3) / (2 * 5.43072)


class TestQOver4pi:
    def test_si_111(self):
        assert q_over_4pi(SILICON, Reflection(1, 1, 1)) == pytest.approx(Q111, abs=1e-12)
        # sqrt(3)/(2*5.43072) by hand
        assert q_over_4pi(SILICON, Reflection(1, 1, 1)) == pytest.approx(0.1594679, abs=1e-6)

    def test_zero_vector(self):
        assert q_over_4pi(SILICON, Reflection(0, 0, 0)) == 0.0

    def test_si_422(self):
        expected = math.sqrt(24) / (2 * 5.43072)
        assert q_over_4pi(SILICON, Reflection(4, 2, 2)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.451044, abs=1e-6)

    def test_index_past_float_range_has_no_reflection(self):
        # h^2+k^2+l^2 = 10^400 has no float, so neither has its square root.
        with pytest.raises(NoReflection, match=r"^\(10{200},0,0\): Q/4pi is past the float range$"):
            q_over_4pi(SILICON, Reflection(10**200, 0, 0))

    @given(st.tuples(*[st.integers(-5 * 10**153, 5 * 10**153)] * 3))
    def test_same_bits_wherever_the_float_holds(self, hkl):
        n_sq = sum(i * i for i in hkl)
        assert q_over_4pi(SILICON, Reflection(*hkl)) == math.sqrt(float(n_sq)) / (2.0 * SILICON.a0)


class TestClassify:
    @pytest.mark.parametrize("hkl,expected", [
        ((2, 2, 2), ReflectionClass.FORBIDDEN),
        ((4, 2, 2), ReflectionClass.STRONG),
        ((1, 1, 0), ReflectionClass.DISALLOWED),
        ((1, 1, 1), ReflectionClass.WEAK),
        ((6, 2, 0), ReflectionClass.STRONG),
        ((2, 0, 0), ReflectionClass.FORBIDDEN),
        ((9, 3, 3), ReflectionClass.WEAK),
    ])
    def test_examples(self, hkl, expected):
        assert classify(Reflection(*hkl)) is expected

    def test_partition_exhaustive(self):
        # Every triple with |index| <= 12 falls in exactly one class.
        counts = dict.fromkeys(ReflectionClass, 0)
        for h in range(-12, 13):
            for k in range(-12, 13):
                for l in range(-12, 13):
                    counts[classify(Reflection(h, k, l))] += 1
        assert sum(counts.values()) == 25**3
        assert all(v > 0 for v in counts.values())

    def test_integer_rule_matches_diamond_structure_factor(self):
        # _class_of (the integer rule classify applies) against |F| summed
        # over the eight atoms of the cubic cell, for |index| <= 12.
        fcc = [(0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)]  # quarters of a0
        atoms = fcc + [(x + 1, y + 1, z + 1) for x, y, z in fcc]
        by_amplitude = {8: ReflectionClass.STRONG, 4 * math.sqrt(2): ReflectionClass.WEAK}
        for h in range(-12, 13):
            for k in range(-12, 13):
                for l in range(-12, 13):
                    cls = _class_of(h, k, l)
                    assert cls is classify(Reflection(h, k, l))
                    f = abs(sum(1j ** (h * x + k * y + l * z) for x, y, z in atoms))
                    if f < 1e-9:
                        fcc_sum = abs(sum(1j ** (h * x + k * y + l * z) for x, y, z in fcc))
                        assert cls is (ReflectionClass.DISALLOWED if fcc_sum < 1e-9
                                       else ReflectionClass.FORBIDDEN)
                    else:
                        match = [c for a, c in by_amplitude.items() if abs(f - a) < 1e-9]
                        assert [cls] == match

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_class_invariant_under_sign_and_order(self, h, k, l):
        r = Reflection(h, k, l)
        assert classify(r) is classify(r.canonical())


class TestReflectionClassMembers:
    """Each member carries its amplitude |F| / b_meas and extinct flag as
    data; its value, str, lookup by value and pickling are those of a plain
    string-valued enum."""

    def test_extinct_truth_table(self):
        assert {c: c.extinct for c in ReflectionClass} == {
            ReflectionClass.DISALLOWED: True, ReflectionClass.FORBIDDEN: True,
            ReflectionClass.WEAK: False, ReflectionClass.STRONG: False}
        assert all(type(c.extinct) is bool for c in ReflectionClass)

    def test_amplitude_table(self):
        # 4 |1 + i^(h+k+l)|: 0, 4 sqrt(2) and 8, as floats.
        assert {c: c.amplitude for c in ReflectionClass} == {
            ReflectionClass.DISALLOWED: 0.0, ReflectionClass.FORBIDDEN: 0.0,
            ReflectionClass.WEAK: 4.0 * math.sqrt(2.0), ReflectionClass.STRONG: 8.0}
        assert all(type(c.amplitude) is float for c in ReflectionClass)
        assert all(c.extinct == (c.amplitude == 0.0) for c in ReflectionClass)

    @pytest.mark.parametrize("member,value", [
        (ReflectionClass.DISALLOWED, "disallowed"), (ReflectionClass.FORBIDDEN, "forbidden"),
        (ReflectionClass.WEAK, "weak"), (ReflectionClass.STRONG, "strong"),
    ])
    def test_value_str_and_lookup(self, member, value):
        assert member.value == value
        assert str(member) == value
        assert repr(member) == f"<ReflectionClass.{member.name}: {value!r}>"
        assert ReflectionClass(value) is member
        for data in ((value, member.amplitude), (value, member.extinct)):
            with pytest.raises(ValueError):
                ReflectionClass(data)

    @pytest.mark.parametrize("member", list(ReflectionClass))
    def test_pickle_round_trip_is_the_member(self, member):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member

    def test_integer_rule_is_classify_and_the_parity_oracle(self):
        # Every triple in [-9, 9]^3: _class_of, classify and the parity rule
        # written out give the same member object.
        for h in range(-9, 10):
            for k in range(-9, 10):
                for l in range(-9, 10):
                    if len({h % 2, k % 2, l % 2}) > 1:
                        want = ReflectionClass.DISALLOWED
                    elif (h + k + l) % 2:
                        want = ReflectionClass.WEAK
                    elif (h + k + l) % 4:
                        want = ReflectionClass.FORBIDDEN
                    else:
                        want = ReflectionClass.STRONG
                    assert _class_of(h, k, l) is want
                    assert classify(Reflection(h, k, l)) is want


class TestScatteringLength:
    def test_forward_value_exact(self, si_model):
        assert b_of_q(SILICON, si_model, 0.0) == SILICON.b_nuclear

    def test_b_nuclear_and_z_are_the_crystals(self, si_model):
        crystal = replace(SILICON, b_nuclear=9.0, Z=30)
        f = si_model.form_factor.f_at(Q111)
        assert b_of_q(crystal, si_model, Q111) == 9.0 - si_model.b_ne * 30 * (1.0 - f)

    def test_si_111(self, si_model):
        # 4.1507 + 1.31e-3 * 14 * (1 - 0.7526)
        assert b_of_q(SILICON, si_model, Q111) == pytest.approx(4.155237, abs=1e-5)

    def test_model_of_a_crystal_without_builtin_table(self):
        crystal = replace(SILICON, name="Si28")
        with pytest.raises(ValueError, match="no built-in form-factor table for Si28"):
            scattering_model(crystal, 0.0)
        assert scattering_model(crystal, 0.0, SILICON_TABLE).form_factor is SILICON_TABLE

    def test_no_electrostatic_term(self):
        m = scattering_model(SILICON, 0.0)
        for q in (0.0, Q111, 0.45, 0.6):
            assert b_of_q(SILICON, m, q) == pytest.approx(4.1507, abs=1e-12)

    def test_increasing_in_one_minus_f(self, si_model):
        # With b_ne < 0 the scattering length grows as f drops.
        qs = [0.0, Q111, 0.451044, 0.478403, 0.544686, 0.582294]
        values = [b_of_q(SILICON, si_model, q) for q in qs]
        assert values == sorted(values)


class TestScatteringModelChecks:
    """A model refuses a non-finite b_ne and a non-finite or negative B
    when it is built, replace() included, not in a later calculation."""

    @pytest.mark.parametrize("b_ne", [math.nan, math.inf, -math.inf])
    def test_non_finite_bne(self, si_model, b_ne):
        with pytest.raises(ValueError, match="^b_ne must be finite$"):
            scattering_model(SILICON, b_ne)
        with pytest.raises(ValueError, match="^b_ne must be finite$"):
            replace(si_model, b_ne=b_ne)

    @pytest.mark.parametrize("B", [math.inf, -1.0, math.nan])
    def test_negative_or_non_finite_b(self, si_model, B):
        with pytest.raises(ValueError, match="^B must be non-negative and finite$"):
            scattering_model(SILICON, -1.31e-3, B=B)
        with pytest.raises(ValueError, match="^B must be non-negative and finite$"):
            replace(si_model, B=B)


class TestDebyeWaller:
    def test_b_zero(self):
        for q in (0.0, 0.2, 0.7):
            assert debye_waller(0.0, q) == 1.0

    def test_si_111(self):
        assert debye_waller(0.4613, Q111) == pytest.approx(math.exp(-0.4613 * Q111**2), rel=1e-15)
        assert debye_waller(0.4613, Q111) == pytest.approx(0.98834, abs=1e-5)

    def test_si_711(self):
        q711 = math.sqrt(51) / (2 * 5.43072)
        assert debye_waller(0.4613, q711) == pytest.approx(0.81920, abs=2e-5)

    @given(st.floats(0.01, 2.0), st.floats(1e-4, 0.9), st.floats(1e-4, 0.9))
    def test_strictly_decreasing_in_q(self, B, q1, q2):
        lo, hi = sorted((q1, q2))
        if hi - lo < 1e-9:
            return
        assert debye_waller(B, hi) < debye_waller(B, lo)

    @pytest.mark.parametrize("B", [-0.1, math.nan, math.inf, pytest.param(10**400, id="10**400"),
                                   True, "0.4", None])
    def test_negative_or_non_finite_b_rejected(self, B):
        with pytest.raises(ValueError, match="^B must be non-negative and finite$"):
            debye_waller(B, 0.3)

    @pytest.mark.parametrize("B, q", [(0.46, math.nan), (0.0, math.inf), (0.0, -math.inf)])
    def test_undefined_factor_names_q(self, B, q):
        # exp(nan) and exp(-0 * inf) are NaN; the factor is refused, not returned
        with pytest.raises(ValueError, match=r"^Q/4pi = -?(nan|inf) 1/A leaves"):
            debye_waller(B, q)

    def test_infinite_q_at_positive_b_is_zero(self):
        assert debye_waller(0.46, math.inf) == 0.0

    def test_int_q_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="^Q/4pi must be a real number in the float range$"):
            debye_waller(0.46, 10**400)


class TestBMeas:
    def test_b_zero_is_identity(self, si_model):
        m = scattering_model(SILICON, -1.31e-3, B=0.0)
        assert b_meas(SILICON, m, Q111) == b_of_q(SILICON, m, Q111)

    def test_survey_111_inversion(self):
        # Reported amplitude 4.1053 at B = 0.4613 corrects to ~4.1538.
        b = debye_waller_correct(4.1053, 0.0, 0.4613, 0.0, Q111)[0]
        assert 4.1532 <= b <= 4.1543

    def test_ge_111_inversion(self):
        q = math.sqrt(3) / (2 * 5.6575)
        b = debye_waller_correct(8.0829, 0.0, 0.57, 0.0, q)[0]
        # oracle: divide by exp(-0.57 * 3/(4 * 5.6575^2))
        expected = 8.0829 / math.exp(-0.57 * 3 / (4 * 5.6575**2))
        assert b == pytest.approx(expected, rel=1e-14)
        assert b == pytest.approx(8.191582, abs=1e-5)

    @given(st.floats(0.0, 1.2), st.floats(0.0, 0.75))
    def test_round_trip(self, B, q):
        m = scattering_model(SILICON, -1.31e-3, B=B)
        try:
            forward = b_meas(SILICON, m, q)
        except Exception:
            return  # outside the form-factor domain
        back = debye_waller_correct(forward, 0.0, B, 0.0, q)[0]
        assert back == pytest.approx(b_of_q(SILICON, m, q), rel=1e-12)


class TestStructureFactor:
    def test_weak_amplitude(self, si_model):
        f = structure_factor_magnitude(SILICON, si_model, Reflection(1, 1, 1))
        assert f == pytest.approx(4 * math.sqrt(2) * b_meas(SILICON, si_model, Q111), rel=1e-15)

    def test_survey_111_squared(self, si_model):
        # |F|^2 with the measured amplitude 4.1053 is about 540 fm^2.
        assert (4 * math.sqrt(2) * 4.1053) ** 2 == pytest.approx(539.3, abs=0.05)
        f2 = structure_factor_magnitude(SILICON, si_model, Reflection(1, 1, 1)) ** 2
        assert f2 == pytest.approx(540.0, abs=3.0)

    def test_forbidden_zero(self, si_model):
        assert structure_factor_magnitude(SILICON, si_model, Reflection(2, 2, 2)) == 0.0
        assert structure_factor_magnitude(SILICON, si_model, Reflection(1, 1, 0)) == 0.0

    def test_survey_422_squared(self, si_model):
        f2 = structure_factor_magnitude(SILICON, si_model, Reflection(4, 2, 2)) ** 2
        assert f2 == pytest.approx(918.0, abs=3.0)
        # derivation chain: b(Q422) = 4.1603, DW = 0.91042
        q = q_over_4pi(SILICON, Reflection(4, 2, 2))
        assert b_of_q(SILICON, si_model, q) == pytest.approx(4.16026, abs=1e-4)
        assert debye_waller(si_model.B, q) == pytest.approx(0.91042, abs=1e-5)

    def test_refuses_a_non_positive_model_amplitude(self):
        # At b_ne = 1 fm, b(Q) DW is negative past (111): no |F| to return.
        model = scattering_model(SILICON, 1.0)
        assert structure_factor_magnitude(SILICON, model, Reflection(1, 1, 1)) > 0.0
        with pytest.raises(ValueError, match=r"^model amplitude at \(711\) is -4\.13246 fm, "
                                             r"not positive \(b_ne = 1 fm\)$"):
            structure_factor_magnitude(SILICON, model, Reflection(7, 1, 1))
        # An extinct reflection has |F| = 0 whatever the model.
        assert structure_factor_magnitude(SILICON, model, Reflection(2, 2, 2)) == 0.0
        assert structure_factor_magnitude(SILICON, model, Reflection(1, 1, 0)) == 0.0

    def test_refuses_a_nan_model_amplitude(self, si_model, monkeypatch):
        monkeypatch.setattr(lattice, "b_meas", lambda *args: math.nan)
        with pytest.raises(ValueError, match=r"^model amplitude at \(111\) is nan fm, "):
            structure_factor_magnitude(SILICON, si_model, Reflection(1, 1, 1))
        assert structure_factor_magnitude(SILICON, si_model, Reflection(2, 2, 2)) == 0.0

    def test_strong_to_weak_ratio(self, si_model):
        # Same b_meas: the class amplitudes differ by sqrt(2) exactly.
        q422 = q_over_4pi(SILICON, Reflection(4, 2, 2))
        strong = structure_factor_magnitude(SILICON, si_model, Reflection(4, 2, 2))
        weak_equiv = 4 * math.sqrt(2) * b_meas(SILICON, si_model, q422)
        assert strong / weak_equiv == pytest.approx(math.sqrt(2), rel=1e-15)


class TestCrystalSpec:
    def test_defaults(self):
        assert SILICON.a0 == 5.43072 and SILICON.Z == 14
        assert GERMANIUM.a0 == 5.6575 and GERMANIUM.Z == 32

    @pytest.mark.parametrize("kwargs", [
        dict(a0=-1.0), dict(Z=0), dict(b_nuclear=0.0), dict(B=-0.1),
    ])
    def test_invariants(self, kwargs):
        base = dict(name="X", a0=5.0, Z=10, b_nuclear=4.0, sigma_b_nuclear=0.001,
                    B=0.5, sigma_B=0.01)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CrystalSpec(**base)

    @pytest.mark.parametrize("Z", [14.5, True, math.nan, 0])
    def test_z_must_be_an_integer(self, Z):
        with pytest.raises(ValueError, match="^Z must be an integer >= 1$"):
            replace(SILICON, Z=Z)


class TestReflection:
    def test_exact_ints_skip_the_integer_check(self, monkeypatch):
        def checked(*args):
            raise AssertionError("the integer check ran")

        monkeypatch.setattr(lattice, "_integer", checked)
        assert Reflection(4, 2, 2).n_sq == 24
        with pytest.raises(AssertionError, match="the integer check ran"):
            Reflection(np.int64(4), 2, 2)

    def test_canonical(self):
        assert Reflection(-2, 4, 2).canonical() == Reflection(4, 2, 2)
        assert Reflection(1, 7, 1).canonical() == Reflection(7, 1, 1)

    def test_primitive(self):
        g, m = Reflection(4, 4, 0).primitive()
        assert (g, m) == (Reflection(1, 1, 0), 4)
        g, m = Reflection(3, 3, 3).primitive()
        assert (g, m) == (Reflection(1, 1, 1), 3)
        g, m = Reflection(5, 3, 1).primitive()
        assert (g, m) == (Reflection(5, 3, 1), 1)

    def test_canonical_and_primitive_return_self(self):
        r = Reflection(5, 3, 1)
        assert r.canonical() is r
        assert r.primitive()[0] is r
        assert Reflection(-5, 3, 1).canonical() == r
