import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pendellosung
from pendellosung import FormFactorRangeError, FormFactorTable
from pendellosung.formfactor import (
    GERMANIUM_TABLE,
    SILICON_TABLE,
    table_from_csv,
)

A0_SI = 5.43072


def q_of(n_sq, a0=A0_SI):
    return math.sqrt(n_sq) / (2 * a0)


# Survey values: reflection -> (h^2+k^2+l^2, f)
SI_SAMPLES = {
    "111": (3, 0.7526),
    "422": (24, 0.4788),
    "511": (27, 0.4600),
    "531": (35, 0.4150),
    "620": (40, 0.3902),
    "533": (43, 0.3764),
    "551": (51, 0.3432),
    "711": (51, 0.3432),
    "642": (56, 0.3249),
}


class TestBuiltinTables:
    @pytest.mark.parametrize("label", sorted(SI_SAMPLES))
    def test_si_samples_exact(self, label):
        n_sq, f = SI_SAMPLES[label]
        assert SILICON_TABLE.f_at(q_of(n_sq)) == pytest.approx(f, abs=1e-12)

    def test_normalization(self):
        assert SILICON_TABLE.f_at(0.0) == 1.0
        assert GERMANIUM_TABLE.f_at(0.0) == 1.0

    def test_ge_111(self):
        q = math.sqrt(3) / (2 * 5.6575)
        assert q == pytest.approx(0.153076, abs=1e-6)
        assert GERMANIUM_TABLE.f_at(q) == pytest.approx(0.8542, abs=1e-12)

    def test_shared_q_deduplicated(self):
        # (551) and (711) share q = sqrt(51)/(2 a0); one sample holds both.
        qs = [s[0] for s in SILICON_TABLE.samples]
        assert len(qs) == len(set(qs)) == 9

    def test_monotone_everywhere(self):
        qs = np.linspace(0.0, SILICON_TABLE.q_max, 4000)
        fs = np.array([SILICON_TABLE.f_at(q) for q in qs])
        assert np.all(np.diff(fs) <= 1e-12)
        assert np.all(fs > 0) and np.all(fs <= 1.0)

    def test_extrapolation_margin(self):
        edge = SILICON_TABLE.q_max
        inside = SILICON_TABLE.f_at(edge * 1.049)
        assert 0 < inside < SILICON_TABLE.f_at(edge)
        with pytest.raises(FormFactorRangeError):
            SILICON_TABLE.f_at(edge * 1.051)
        with pytest.raises(FormFactorRangeError):
            SILICON_TABLE.f_at(-0.1)


class TestTableConstruction:
    def test_first_sample_must_normalize(self):
        with pytest.raises(ValueError):
            FormFactorTable(element="X", samples=((0.0, 0.99), (0.2, 0.8)))
        with pytest.raises(ValueError):
            FormFactorTable(element="X", samples=((0.1, 1.0), (0.2, 0.8)))

    def test_monotone_samples_required(self):
        with pytest.raises(ValueError):
            FormFactorTable(element="X", samples=((0.0, 1.0), (0.2, 0.8), (0.3, 0.85)))

    def test_duplicate_q_conflict(self):
        with pytest.raises(ValueError):
            FormFactorTable(element="X", samples=((0.0, 1.0), (0.2, 0.8), (0.2, 0.7)))

    def test_duplicate_q_agreeing_collapses(self):
        t = FormFactorTable(element="X", samples=((0.0, 1.0), (0.2, 0.8), (0.2, 0.8)))
        assert len(t.samples) == 2


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ff.csv"
        path.write_text("q_over_4pi_A_inv,f\n"
                        + "".join(f"{q:.6g},{f:.6g}\n" for q, f in SILICON_TABLE.samples))
        again = table_from_csv(path, element="Si")
        for (q1, f1), (q2, f2) in zip(SILICON_TABLE.samples, again.samples):
            assert q2 == pytest.approx(q1, rel=1e-5)
            assert f2 == pytest.approx(f1, rel=1e-5)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("q,f\n0,1\n0.2,0.8\n")
        with pytest.raises(ValueError):
            table_from_csv(path)

    def test_first_row_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("q_over_4pi_A_inv,f\n0.1,0.9\n0.2,0.8\n")
        with pytest.raises(ValueError):
            table_from_csv(path)


@st.composite
def decreasing_tables(draw):
    """Tables of 2-12 samples, strictly increasing q, strictly decreasing f."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-3, 0.5), min_size=n - 1, max_size=n - 1))
    ratios = draw(st.lists(st.floats(0.05, 0.999), min_size=n - 1, max_size=n - 1))
    q = np.concatenate([[0.0], np.cumsum(steps)])
    f = np.concatenate([[1.0], np.cumprod(ratios)])
    return FormFactorTable(element="X", samples=tuple(zip(q.tolist(), f.tolist())))


def assert_matches_scipy_pchip(table):
    """f_at equals scipy's PchipInterpolator on (q^2, ln f) to the bit, and
    past q_max equals the line along its derivative at the last knot."""
    interpolate = pytest.importorskip("scipy.interpolate")
    q = np.array([s[0] for s in table.samples])
    x = q * q
    ref = interpolate.PchipInterpolator(x, np.log([s[1] for s in table.samples]))
    inside = np.concatenate([q, np.linspace(0.0, table.q_max, 301), (q[:-1] + q[1:]) / 2])
    for qi in inside.tolist():
        assert table.f_at(qi) == math.exp(ref(qi * qi))
    x_last = float(x[-1])
    y_last, slope = float(ref(x_last)), float(ref.derivative()(x_last))
    for qi in np.linspace(table.q_max, table.q_max * 1.05, 12)[1:].tolist():
        assert table.f_at(qi) == math.exp(y_last + slope * (qi * qi - x_last))


class TestScipyOracle:
    @pytest.mark.parametrize("table", [SILICON_TABLE, GERMANIUM_TABLE], ids=["Si", "Ge"])
    def test_builtin_tables_bit_identical(self, table):
        assert_matches_scipy_pchip(table)

    @settings(max_examples=60, deadline=None)
    @given(decreasing_tables())
    def test_generated_tables_bit_identical(self, table):
        assert_matches_scipy_pchip(table)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pendellosung.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pendellosung; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
