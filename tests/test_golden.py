"""Byte contract of the CLI's CSV outputs under the default configuration.

Each digest is the sha256 of the file the command writes. They were
recorded before the inference core and the fringe sweep were rewritten
(the maxwellian (642) and germanium profiles: before the profile writer
was), so any change to an output byte fails here, however small.
"""

import hashlib

import pytest

from pendellosung.cli import main

GOLDEN = [
    (("plan",), "plan.csv",
     "861f69b724789898c3eed559112504fe579c2f36e80d74981df478426f2f3157"),
    (("plan", "--all", "--strict"), "plan.csv",
     "bdc8e29eff08067f2ca4e12936fc399f84742471a22740ece1b152b98af3fae9"),
    (("budget",), "budget.csv",
     "bd0e51e968c1765dc5c5a3e0b2d8612f3bd29e8599a7f21458fa52f0932b168b"),
    (("synth",), "measurements.csv",
     "3a723b364780fbb0d922a6e4a2805974d112c1d57591a5d14ce2834c39f5f996"),
    (("simulate", "711"), "fringes_711.csv",
     "517ae011a4d8cc68c9b8e9b0eaa7d6297624c78c20f5aab0aed4499bbfac416a"),
    (("simulate", "642", "--samples", "50000", "--spectrum", "maxwellian"), "fringes_642.csv",
     "735748bef0903417b3c72aa5153aac397c70a6ad21c24e05f65d7bf3a372b21d"),
]

GE_THIN_PROFILE_SHA256 = "aafec807230b0d7c506b3ee3db0880b6e269eb0023d611b9eb5593232d99f4e1"

FIT_REPORT_SHA256 = "56b014207b67f9103ccf82ac55d9502428c7d1fd6e8ce686b1b6c04b95f6263d"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,name,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_csv_bytes(tmp_path, capsys, argv, name, digest):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / name) == digest


def test_fit_report_bytes_of_seed0_synth(tmp_path, capsys):
    assert main(["synth", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert main(["fit", str(tmp_path / "measurements.csv"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "fit_report.csv") == FIT_REPORT_SHA256


def test_germanium_thin_blade_profile_bytes(tmp_path, capsys):
    cfg = tmp_path / "ge.ini"
    cfg.write_text("[crystal]\nname = Ge\n[blade]\nthickness_cm = 0.5\n")
    assert main(["--config", str(cfg), "simulate", "111", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "fringes_111.csv") == GE_THIN_PROFILE_SHA256
