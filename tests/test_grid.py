"""The command-line byte-identity grid (grid.py), case by case; the same
check runs outside pytest with ``python tests/grid.py --check``."""

import pytest

import grid
from pendellosung import cli


def test_every_case_is_recorded():
    assert sorted(grid.load()) == sorted(grid.CASES)


@pytest.mark.parametrize("name", grid.CASES)
def test_case_matches_record(tmp_path, name):
    assert grid.run_case(name, tmp_path) == grid.load()[name]


def test_a_crashing_command_is_its_cases_mismatch(tmp_path, monkeypatch, capsys):
    # One command that raises is named as a mismatch; the other cases still run.
    def crash(cfg, args):
        raise RuntimeError("boom")

    names = ["si: radius -- -0.00131", "si: plan"]
    recorded = grid.load()
    monkeypatch.setitem(cli._COMMANDS, "radius", crash)
    assert grid.run_case(names[0], tmp_path)["exit"] == "RuntimeError: boom"
    monkeypatch.setattr(grid, "CASES", {n: grid.CASES[n] for n in names})
    monkeypatch.setattr(grid, "load", lambda: {n: recorded[n] for n in names})
    assert grid.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "MISMATCH si: radius -- -0.00131: exit, stdout", "1 mismatched case(s)"]
