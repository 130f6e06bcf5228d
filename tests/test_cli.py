import csv
import os
import platform
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pendellosung
from pendellosung.cli import (
    _BLOCK_ROWS, _block_formatter, _write_columns, build_parser, main, read_measurements_csv,
)
from pendellosung.lattice import SILICON_TABLE


def run(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPlan:
    def test_default_si_nine_rows(self, tmp_path, capsys):
        assert run("plan", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "candidates=16 contaminated=7 pure=9" in out
        rows = read_rows(tmp_path / "plan.csv")
        assert rows[0] == ["hkl", "class", "f", "lambda_min", "lambda_max",
                           "two_theta_min", "two_theta_max", "F2_fm2", "pure"]
        assert [r[0] for r in rows[1:]] == [
            "111", "422", "511", "531", "620", "533", "551", "711", "642"]

    def test_all_flag_sixteen_rows(self, tmp_path):
        assert run("plan", "--all", "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "plan.csv")
        assert len(rows) == 17
        assert sum(1 for r in rows[1:] if r[-1] == "true") == 9

    def test_narrow_detector_single_row(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[spectrum]\ntwo_theta_max = 45\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "plan.csv")
        assert [r[0] for r in rows[1:]] == ["111"]

    @pytest.mark.parametrize("command", [["plan"], ["budget"], ["synth"], ["mc"]])
    def test_survey_walk_past_its_bound_is_a_config_error(self, tmp_path, capsys,
                                                           monkeypatch, command):
        from pendellosung import planner

        def walked(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(planner, "_class_of", walked)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[spectrum]\nlambda_peak = 0.01\n")
        assert run("--config", str(cfg), *command, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: Si: lambda_peak = 0.01 A with two_theta_max = 110 deg walks")

    @pytest.mark.parametrize("command,message", [
        (["synth"], "no reflections left to synthesize"),
        (["mc", "--trials", "100"], "no reflections left for the Monte Carlo"),
    ], ids=["synth", "mc"])
    def test_narrow_detector_leaves_no_new_reflection(self, tmp_path, capsys, command, message):
        # (111) is the only pure reflection, and synth and mc use the others.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[spectrum]\ntwo_theta_max = 45\n")
        assert run("--config", str(cfg), *command, "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "measurements.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("plan", "--out", str(out1)) == 0
        assert run("plan", "--out", str(out2)) == 0
        assert (out1 / "plan.csv").read_bytes() == (out2 / "plan.csv").read_bytes()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[crystal]\na0 = not-a-number\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,lineno", [
        ("[crystal\nname = Si\n", 1),  # no section header
        ("[crystal]\nname\n", 2),  # a key without a value
        ("[crystal]\nname = Si\n[crystal]\nname = Ge\n", 3),  # a repeated section
    ], ids=["header", "no-value", "repeated"])
    def test_malformed_ini(self, tmp_path, capsys, text, lineno):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed config {cfg}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert re.search(rf"line:? +{lineno}\b", err)  # where the file goes wrong
        assert not (tmp_path / "plan.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[crystal]\nlattice = 5.43\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2

    def test_derived_window_fields_are_not_keys(self, tmp_path, capsys):
        # SpectrumWindow's stored sines are fields, but not constructor ones.
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spectrum]\n_sin_min = 0.3\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "config error: unknown key '_sin_min' in section [spectrum]\n")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff\xfe[crystal]\nname = Si\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n")

    def test_form_factor_table_not_utf8(self, tmp_path, capsys):
        table = tmp_path / "ff.csv"
        table.write_bytes(b"q_over_4pi_A_inv,f\n0,1\n0.2,0.8\xb0\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[crystal]\nform_factor_csv = {table}\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"config error: form-factor table: {table}: 'utf-8' codec can't decode byte 0xb0 "
            "in position 30: invalid start byte\n")

    def test_missing_config_file(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.ini"), "plan") == 2


class TestSimulate:
    def test_profile_csv(self, tmp_path, capsys):
        assert run("simulate", "711", "--out", str(tmp_path), "--samples", "500") == 0
        out = capsys.readouterr().out
        assert "periods=24" in out and "antinodes=47" in out
        rows = read_rows(tmp_path / "fringes_711.csv")
        assert rows[0] == ["lambda_A", "two_theta_deg", "argument_rad", "intensity_norm"]
        assert len(rows) == 501

    def test_forbidden_reflection(self, tmp_path, capsys):
        assert run("simulate", "222", "--out", str(tmp_path)) == 3
        assert "forbidden" in capsys.readouterr().err

    def test_bad_hkl(self, tmp_path):
        assert run("simulate", "zzz", "--out", str(tmp_path)) == 2

    def test_column_writer_matches_csv_module(self, tmp_path):
        # The reference: the csv module over numpy scalars, one format call each.
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -123456.5, 999999.5, 1e16]
        rng = np.random.default_rng(1)
        columns = [np.concatenate([special, rng.standard_normal(200) * 10.0**k])
                   for k in (-8, 0, 3, 12)]
        header = ["a", "b", "c", "d"]
        _write_columns(tmp_path / "fast.csv", header, columns)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([f"{x:.6g}" for x in row] for row in zip(*columns))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [2, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])
    def test_column_writer_at_block_boundaries(self, tmp_path, n_rows):
        # Special values on the rows either side of the first block end
        # (clipped to the last row when the file is shorter).
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 999999.5, 1e16]
        rng = np.random.default_rng(n_rows)
        columns = [rng.standard_normal(n_rows) * 10.0**k for k in (-8, 0, 3, 12)]
        rows = sorted({min(r, n_rows - 1) for r in (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)})
        for i, r in enumerate(rows):
            for j, c in enumerate(columns):
                c[r] = special[(i * len(columns) + j) % len(special)]
        header = ["a", "b", "c", "d"]
        _write_columns(tmp_path / "fast.csv", header, columns)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([f"{x:.6g}" for x in row] for row in zip(*columns))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(read_rows(tmp_path / "fast.csv")) == n_rows + 1


def percent_rows(block):
    """The specification of the block formatter: "%.6g" % x per value."""
    return "".join(",".join("%.6g" % x for x in row) + "\n" for row in block.tolist()).encode()


# Every magnitude with +-0.0, subnormals, nan and +-inf; the fixed-notation
# range and its edges; short decimals, which land on or near rounding ties.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=9e-5, max_value=1.1e6),
    st.builds(lambda n, k: n / 10.0**k, st.integers(1, 10**7), st.integers(0, 12)),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.nan, np.inf, -np.inf]),
)


class TestBlockFormatter:
    """_block_formatter builds fixed notation in numpy and leaves every
    value it cannot prove to %; its bytes must equal % everywhere."""

    def test_ties_and_edges(self):
        powers = [10.0**k for k in range(-5, 7)]
        values = [12345.25, 100000.5, 999999.5, 99999.95, 1e-4, 9.999995e-05, 0.00015, 2.5]
        values += [v for p in powers for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))]
        block = np.array(values).reshape(-1, 1)
        assert _block_formatter(1)(block) == percent_rows(block)

    def test_block_of_fallbacks(self, tmp_path):
        # Every value is non-positive, non-finite, out of range or a tie.
        pool = [-1.5, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-5, 1e7, 2.5e-310, 12345.25]
        columns = [np.resize(np.roll(pool, j), _BLOCK_ROWS + 3) for j in range(4)]
        _write_columns(tmp_path / "fast.csv", ["a", "b", "c", "d"], columns)
        expected = b"a,b,c,d\n" + percent_rows(np.column_stack(columns))
        assert (tmp_path / "fast.csv").read_bytes() == expected

    def test_memory_stays_at_one_block(self, tmp_path):
        # 1.2e5 rows x 4 columns is about 4.5 MB of text; the writer holds
        # one block: its floats, its 16-byte field slots and their text.
        n_rows, n_cols = 120_000, 4
        rng = np.random.default_rng(7)
        columns = [10.0 ** rng.uniform(-5, 3, n_rows) for _ in range(n_cols)]
        slot_bytes = _BLOCK_ROWS * n_cols * 16
        tracemalloc.start()
        try:
            _write_columns(tmp_path / "big.csv", ["a", "b", "c", "d"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * slot_bytes
        assert (tmp_path / "big.csv").stat().st_size > 12 * slot_bytes


# Values that go to %, and values the numpy path formats.
_FALLBACKS = [-1.5, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-5, 1e7, 2.5e-310, 12345.25]
_FAST = [1.0, 0.123456, 2.5e-4, 98765.4, 31.4159, 0.00123, 999999.0, 42.0, 7.5e-3, 654321.0]


class TestWriterReusesScratch:
    """The writer fills the same arrays for every block; no field of an
    earlier block may show through a later, shorter one."""

    @staticmethod
    def _alternating(n_rows, n_cols=4):
        # At each (row in block, column), the value goes to % in one block
        # and through the numpy path in the next, and the other way round.
        r = np.arange(n_rows)[:, None]
        c = np.arange(n_cols)[None, :]
        fallback = (r % _BLOCK_ROWS + r // _BLOCK_ROWS + c) % 2 == 0
        pick = (r * 7 + c * 3) % len(_FAST)
        block = np.where(fallback, np.take(_FALLBACKS, pick), np.take(_FAST, pick))
        return [np.ascontiguousarray(block[:, j]) for j in range(n_cols)]

    @pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                        3 * _BLOCK_ROWS + 7])
    def test_bytes_equal_percent(self, tmp_path, n_rows):
        columns = self._alternating(n_rows)
        _write_columns(tmp_path / "fast.csv", ["a", "b", "c", "d"], columns)
        expected = b"a,b,c,d\n" + percent_rows(np.column_stack(columns))
        assert (tmp_path / "fast.csv").read_bytes() == expected

    @pytest.mark.parametrize("first, second", [(_FAST, _FALLBACKS), (_FALLBACKS, _FAST)])
    def test_formatter_called_again_on_a_shorter_block(self, first, second):
        fmt = _block_formatter(2)
        full = np.resize(first, (_BLOCK_ROWS, 2))
        short = np.resize(second, (3, 2))
        assert fmt(full) == percent_rows(full)
        assert fmt(short) == percent_rows(short)
        assert fmt(full[:1]) == percent_rows(full[:1])


class TestOneFormatterManyBlocks:
    """A formatter keeps its slots from call to call; its first call and
    every later one must equal %, and no byte of an earlier call may show
    through a later one, whatever the values."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n_cols: st.lists(
        st.lists(st.lists(_ANY_FLOAT, min_size=n_cols, max_size=n_cols), min_size=1, max_size=32),
        min_size=2, max_size=4)))
    def test_matches_percent(self, blocks):
        fmt = _block_formatter(len(blocks[0][0]))
        for rows in blocks:
            block = np.array(rows, dtype=float)
            assert fmt(block) == percent_rows(block)

    @pytest.mark.parametrize("value", [-1.23457e-100, -1.23457e+100, -2.22507e-308])
    def test_longest_percent_text_then_numpy_path(self, tmp_path, value):
        # A 13-character .6g text, the longest, reaches byte 12 of its slot,
        # which the numpy path does not write.
        col = np.ones(_BLOCK_ROWS + 1)
        col[0] = value
        _write_columns(tmp_path / "x.csv", ["a"], [col])
        assert (tmp_path / "x.csv").read_bytes() == b"a\n" + percent_rows(col[:, None])


def _is_linux_glibc():
    return sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


@pytest.mark.slow
@pytest.mark.skipif(not _is_linux_glibc(), reason="counts glibc heap page faults on Linux")
def test_simulate_faults_stay_near_the_profile(tmp_path):
    # A writer that frees and takes its block memory again every block
    # faults the pages back in each time: about 35k faults over a fresh
    # `radius` at 3e5 samples. The profile itself may fault its own pages,
    # up to twice over, and start-up noise is allowed for.
    src = os.path.dirname(os.path.dirname(pendellosung.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def minor_faults(*argv):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "pendellosung", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    n = 300_000
    baseline = minor_faults("radius", "--", "-0.00131")
    faults = minor_faults("simulate", "711", "--samples", str(n), "--out", str(tmp_path))
    result_pages = 4 * n * 8 // resource.getpagesize()
    assert faults - baseline < 2 * result_pages + 2000


class TestSynthFitRoundTrip:
    def test_cycle_recovers_parameters(self, tmp_path, capsys):
        assert run("synth", "--sigma", "0", "--out", str(tmp_path)) == 0
        ms = read_measurements_csv(tmp_path / "measurements.csv")
        assert len(ms) == 8
        assert run("fit", str(tmp_path / "measurements.csv"), "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "B    = 0.4613" in out
        assert "b_ne = -0.0013" in out

    def test_single_point_fit(self, tmp_path, capsys):
        # The (111) amplitude alone, against the forward value: the
        # two-point line reproduces the direct extraction -0.89(32)e-3.
        path = tmp_path / "one.csv"
        import math

        q = 3 ** 0.5 / (2 * 5.43072)
        b_meas = 4.1538 * math.exp(-0.4613 * q * q)
        path.write_text(f"h,k,l,b_meas_fm,sigma_fm\n1,1,1,{b_meas:.7f},0.0008\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 0
        assert "b_ne" in capsys.readouterr().out
        report = {(r[0], r[1]): float(r[3])
                  for r in read_rows(tmp_path / "fit_report.csv")[1:]}
        assert report[("param", "b_ne")] == pytest.approx(-0.89e-3, abs=0.02e-3)
        assert report[("sigma", "b_ne")] == pytest.approx(0.32e-3, abs=0.03e-3)

    @pytest.mark.parametrize("mode", ["auto", "joint", "bne", "B"])
    def test_extinct_measurement_rows_rejected(self, tmp_path, capsys, mode):
        path = tmp_path / "extinct.csv"
        path.write_text("h,k,l,b_meas_fm,sigma_fm\n1,0,0,4.1,0.0008\n2,2,2,4.0,0.0008\n")
        assert run("fit", str(path), "--mode", mode, "--out", str(tmp_path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: (100) is disallowed (|F| = 0)"
        assert not (tmp_path / "fit_report.csv").exists()

    @pytest.mark.parametrize("mode", ["auto", "joint", "bne", "B"])
    def test_forward_beam_row_rejected(self, tmp_path, capsys, mode):
        # A (000) row has q = 0 and f = 1: it would enter as a second
        # forward datum carrying the row's own value and sigma.
        path = tmp_path / "forward.csv"
        path.write_text("h,k,l,b_meas_fm,sigma_fm\n0,0,0,4.1507,0.0008\n1,1,1,4.1053,0.0008\n")
        assert run("fit", str(path), "--mode", mode, "--out", str(tmp_path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: (000) is the forward beam, not a reflection"
        assert not (tmp_path / "fit_report.csv").exists()

    def test_blank_line_in_measurements_gives_the_same_fit(self, tmp_path, capsys):
        assert run("synth", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "measurements.csv").read_text().splitlines(keepends=True)
        (tmp_path / "blank.csv").write_text("".join(rows[:4] + ["\n"] + rows[4:]))
        fits = []
        for name in ("measurements.csv", "blank.csv"):
            capsys.readouterr()
            assert run("fit", str(tmp_path / name), "--out", str(tmp_path)) == 0
            fits.append((capsys.readouterr().out, (tmp_path / "fit_report.csv").read_bytes()))
        assert fits[0] == fits[1]
        assert "joint fit over 8 reflections" in fits[1][0]

    def test_empty_measurements(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("h,k,l,b_meas_fm,sigma_fm\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 3
        assert "error" in capsys.readouterr().err

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 3

    def test_measurements_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"h,k,l,b_meas_fm,sigma_fm\n4,2,2,3.78\xb0,0.0008\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xb0 "
            "in position 35: invalid start byte\n")

    def test_synth_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--seed", "42", "--out", str(a)) == 0
        assert run("synth", "--seed", "42", "--out", str(b)) == 0
        assert (a / "measurements.csv").read_bytes() == (b / "measurements.csv").read_bytes()
        c = tmp_path / "c"
        assert run("synth", "--seed", "43", "--out", str(c)) == 0
        assert (a / "measurements.csv").read_bytes() != (c / "measurements.csv").read_bytes()

    def test_written_csv_reingests(self, tmp_path):
        assert run("synth", "--out", str(tmp_path)) == 0
        ms = read_measurements_csv(tmp_path / "measurements.csv")
        labels = [m.reflection.label() for m in ms]
        assert labels == ["422", "511", "531", "620", "533", "551", "711", "642"]


class TestBudget:
    def test_survey_projections(self, tmp_path, capsys):
        assert run("budget", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "strong (3 refl)" in out and "new (8 refl)" in out
        rows = read_rows(tmp_path / "budget.csv")
        primary = {r[0]: r for r in rows[1:] if r[2] == "true" and r[3] == "true"}
        assert float(primary["strong"][4]) == pytest.approx(0.00040, rel=0.25)
        assert float(primary["strong"][5]) == pytest.approx(0.11e-3, rel=0.25)
        assert float(primary["new"][4]) == pytest.approx(0.00027, rel=0.25)
        assert float(primary["new"][5]) == pytest.approx(0.06e-3, rel=0.25)

    def test_degenerate_single_reflection(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[fit]\ninclude_forward = false\n")
        rc = run("--config", str(cfg), "budget", "--hkl", "422",
                 "--primary-only", "--out", str(tmp_path))
        assert rc == 3

    def test_skipped_configurations_are_named(self, tmp_path, capsys):
        # One reflection cannot fix a slope without the forward point: the
        # two forward-less configurations are skipped, each with a line.
        assert run("budget", "--hkl", "422", "--out", str(tmp_path)) == 0
        captured = capsys.readouterr()
        assert "custom (1 refl)" in captured.out and "(2 rows)" in captured.out
        assert captured.err.splitlines() == [
            f"skipped custom (include_forward=false, propagate_sigma_B={prop}): "
            "need two abscissas (reflections plus forward point)"
            for prop in ("true", "false")]
        rows = read_rows(tmp_path / "budget.csv")
        assert [r[2:4] for r in rows[1:]] == [["true", "true"], ["true", "false"]]

    def test_default_skips_nothing(self, tmp_path, capsys):
        assert run("budget", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_custom_set(self, tmp_path):
        assert run("budget", "--hkl", "422", "620", "642",
                   "--primary-only", "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "budget.csv")
        assert rows[1][0] == "custom" and rows[1][1] == "3"

    @pytest.mark.parametrize("hkl, message", [
        (["100", "200"], "error: (100) is disallowed (|F| = 0)"),
        (["222"], "error: (222) is forbidden (|F| = 0)"),
        (["422", "110"], "error: (110) is disallowed (|F| = 0)"),
    ])
    def test_extinct_reflections_rejected(self, tmp_path, capsys, hkl, message):
        assert run("budget", "--hkl", *hkl, "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "budget.csv").exists()

    def test_forward_beam_rejected(self, tmp_path, capsys):
        assert run("budget", "--hkl", "000", "422", "--out", str(tmp_path)) == 3
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: (000) is the forward beam, not a reflection"
        assert captured.out == ""
        assert not (tmp_path / "budget.csv").exists()


class TestModelAmplitudeNotPositive:
    """[model] b_ne = 1 fm makes b(Q) DW negative past (111): budget, mc and
    synth refuse the model as a data error naming the reflection, with no
    numpy warning, and write nothing."""

    @pytest.mark.parametrize("command", [["budget"], ["mc", "--trials", "100"], ["synth"],
                                         ["synth", "--error-model", "temperature-factor"]],
                             ids=["budget", "mc", "synth", "synth-temperature-factor"])
    def test_data_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nb_ne = 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--config", str(cfg), *command, "--out", str(tmp_path / "out")) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: model amplitude at (422) is -2.86428 fm, not positive "
                                "(b_ne = 1 fm)\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


class TestRadius:
    def test_report(self, capsys):
        assert run("radius", "--", "-0.00131") == 0
        out = capsys.readouterr().out
        assert "-0.113106" in out
        assert "theory" in out and "argonne" in out and "dubna" in out

    @pytest.mark.parametrize("argv,name", [
        (["--", "1e308"], "<r_n^2> = 1e+308 fm"),
        (["--sigma", "1e308", "--", "1"], "sigma(<r_n^2>) = 1e+308 fm"),
    ])
    def test_past_the_float_range_is_a_data_error(self, capsys, argv, name):
        assert run("radius", *argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} / 0.011582 fm^-1 is past the float range\n"


class TestSharedParser:
    """One parser serves every main call in a process; no call may leave
    anything in it that a later call reads."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_suppressed_seed_does_not_leak(self, tmp_path):
        seeded, later, default = tmp_path / "seeded", tmp_path / "later", tmp_path / "default"
        assert run("--seed", "5", "synth", "--out", str(seeded)) == 0
        assert run("synth", "--out", str(later)) == 0
        assert run("--seed", "0", "synth", "--out", str(default)) == 0
        written = [(d / "measurements.csv").read_bytes() for d in (seeded, later, default)]
        assert written[1] == written[2] != written[0]

    def test_usage_error_then_valid_call(self, capsys):
        assert run("radius", "--", "-0.00131") == 0
        usual = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run("radius", "--sigma", "-1", "--", "-0.00131")
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert run("radius", "--", "-0.00131") == 0
        assert capsys.readouterr().out == usual


class TestMonteCarlo:
    def test_runs_and_matches(self, tmp_path, capsys):
        assert run("mc", "--trials", "20000", "--seed", "5", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        for line in out.splitlines():
            if "ratio" in line:
                ratio = float(line.rsplit("ratio", 1)[1])
                assert ratio == pytest.approx(1.0, abs=0.05)

    def test_printed_ratio_is_the_results_sigma_ratio(self, tmp_path, capsys, monkeypatch):
        from pendellosung import inference

        results = []
        original = inference.monte_carlo_validate

        def recorded(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(inference, "monte_carlo_validate", recorded)
        assert run("mc", "--trials", "2000", "--seed", "3", "--out", str(tmp_path)) == 0
        printed = [line.rsplit("ratio ", 1)[1] for line in capsys.readouterr().out.splitlines()
                   if "ratio" in line]
        assert printed == [f"{r:.4f}" for r in results[0].sigma_ratios]

    @pytest.mark.parametrize("trials", ["1000000001", "1" + "0" * 30])
    def test_trials_past_the_cap_is_a_usage_error(self, tmp_path, capsys, monkeypatch, trials):
        from pendellosung import inference

        def ran(*args, **kwargs):
            raise AssertionError("the Monte Carlo started")

        monkeypatch.setattr(inference, "monte_carlo_validate", ran)
        with pytest.raises(SystemExit) as exc:
            run("mc", "--trials", trials, "--out", str(tmp_path))
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"pendellosung mc: error: argument --trials: {trials} trials is past the cap "
            "of 1000000000")

    def test_trials_at_the_cap_reach_the_library(self, tmp_path, monkeypatch):
        from pendellosung import inference

        seen = []

        def stopped(*args, n_trials, **kwargs):
            seen.append(n_trials)
            raise pendellosung.PendellosungError("stopped before drawing")

        monkeypatch.setattr(inference, "monte_carlo_validate", stopped)
        assert run("mc", "--trials", "1000000000", "--out", str(tmp_path)) == 3
        assert seen == [10**9]


class TestConfigOverrides:
    def test_germanium_survey(self, tmp_path, capsys):
        cfg = tmp_path / "ge.ini"
        cfg.write_text("[crystal]\nname = Ge\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "plan.csv")
        assert rows[1][0] == "111"

    def test_inline_crystal(self, tmp_path):
        cfg = tmp_path / "x.ini"
        cfg.write_text(
            "[crystal]\nname = Si\na0 = 5.43072\nZ = 14\nb_nuclear = 4.1507\n"
            "sigma_b_nuclear = 0.0002\nB = 0.4613\nsigma_B = 0.0027\n"
            "[model]\nreference = dubna\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 0

    def test_unknown_crystal(self, tmp_path):
        cfg = tmp_path / "x.ini"
        cfg.write_text("[crystal]\nname = W\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2

    def test_custom_form_factor_table(self, tmp_path):
        ff = tmp_path / "ff.csv"
        ff.write_text("q_over_4pi_A_inv,f\n0,1\n0.2,0.8\n0.5,0.5\n0.7,0.35\n")
        cfg = tmp_path / "x.ini"
        cfg.write_text(f"[crystal]\nname = Si\nform_factor_csv = {ff}\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 0


class TestZeroForwardSigma:
    """An inline crystal that leaves its sigmas out has sigma_b_nuclear = 0:
    every reduction that uses the forward datum refuses it with a typed
    error instead of giving it infinite weight."""

    @pytest.mark.parametrize("command", [
        ["fit", "MEASUREMENTS"],
        ["fit", "MEASUREMENTS", "--mode", "B"],
        ["fit", "MEASUREMENTS", "--mode", "bne"],
        ["mc", "--trials", "100"],
        ["budget"],
    ])
    @pytest.mark.parametrize("include_forward, code", [("true", 3), ("false", 0)])
    def test_forward_datum_refused(self, tmp_path, capsys, command, include_forward, code):
        table = tmp_path / "si.csv"
        table.write_text("q_over_4pi_A_inv,f\n"
                         + "".join(f"{q!r},{f!r}\n" for q, f in SILICON_TABLE.samples))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[crystal]\nname = Si28\na0 = 5.43072\nZ = 14\nb_nuclear = 4.1507\n"
            f"B = 0.4613\nform_factor_csv = {table}\n"
            f"[fit]\ninclude_forward = {include_forward}\n")
        assert run("--config", str(cfg), "synth", "--out", str(tmp_path)) == 0
        argv = [str(tmp_path / "measurements.csv") if a == "MEASUREMENTS" else a
                for a in command]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("--config", str(cfg), *argv, "--out", str(tmp_path)) == code
        err = capsys.readouterr().err
        assert not caught and "Warning" not in err
        if code:
            assert "sigma_b_nuclear" in err.splitlines()[-1]
        elif command == ["budget"]:
            # The four forward configurations are skipped, each named.
            lines = err.splitlines()
            assert len(lines) == 4
            assert all(line.startswith("skipped ") and "include_forward=true" in line
                       and "sigma_b_nuclear" in line for line in lines)
        else:
            assert err == ""
