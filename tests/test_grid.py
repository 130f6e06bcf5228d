"""The command-line byte-identity grid (grid.py), case by case; the same
check runs outside pytest with ``python tests/grid.py --check``."""

import os
import re

import pytest

import grid
from pendellosung import cli


def test_every_case_is_recorded():
    assert sorted(grid.load()) == sorted(grid.CASES)


@pytest.mark.parametrize("name", grid.CASES)
def test_case_matches_record(tmp_path, name):
    assert grid.run_case(name, tmp_path) == grid.load()[name]


@pytest.mark.parametrize("name", [
    "si: budget --sigma 0", "si: mc --sigma 0", "si: mc --trials 1", "si: mc --trials 1000000001",
    "si: radius -- nan", "si: simulate 711 --samples 1"])
@pytest.mark.parametrize("columns", ["200", "40"])
def test_records_hold_at_any_terminal_width(tmp_path, monkeypatch, columns, name):
    # argparse wraps a usage message at the terminal's width; a case runs at 80 columns.
    monkeypatch.setenv("COLUMNS", columns)
    assert grid.run_case(name, tmp_path) == grid.load()[name]
    assert os.environ["COLUMNS"] == columns


@pytest.mark.parametrize("name", grid.CASES)
def test_record_keeps_the_exit_codes(name):
    # A command that raises is recorded as its case's result, so --record would
    # keep a crash; each record must read as the README's exit codes instead.
    record = grid.load()[name]
    lines = record["stderr"].splitlines()
    if record["exit"] == 0:
        assert not any("error:" in line for line in lines)
    elif record["exit"] == 2:
        assert (len(lines) == 1 and lines[0].startswith("config error: ")) or (
            lines[0].startswith("usage: pendellosung")
            and re.match(r"pendellosung( \w+)?: error: ", lines[-1]))
    else:
        assert record["exit"] == 3
        assert len(lines) == 1 and lines[0].startswith("error: ")


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
