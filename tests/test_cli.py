import csv
import warnings

import numpy as np
import pytest

from pendellosung.cli import _write_columns, main, read_measurements_csv
from pendellosung.formfactor import SILICON_TABLE


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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[crystal]\nlattice = 5.43\n")
        assert run("--config", str(cfg), "plan", "--out", str(tmp_path)) == 2

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

    def test_empty_measurements(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("h,k,l,b_meas_fm,sigma_fm\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 3
        assert "error" in capsys.readouterr().err

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert run("fit", str(path), "--out", str(tmp_path)) == 3

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


class TestRadius:
    def test_report(self, capsys):
        assert run("radius", "--", "-0.00131") == 0
        out = capsys.readouterr().out
        assert "-0.113106" in out
        assert "theory" in out and "argonne" in out and "dubna" in out


class TestMonteCarlo:
    def test_runs_and_matches(self, tmp_path, capsys):
        assert run("mc", "--trials", "20000", "--seed", "5", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        for line in out.splitlines():
            if "ratio" in line:
                ratio = float(line.rsplit("ratio", 1)[1])
                assert ratio == pytest.approx(1.0, abs=0.05)


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
        else:
            assert err == ""
