"""The command-line byte-identity grid (grid.py), case by case; the same
check runs outside pytest with ``python tests/grid.py --check``."""

import pytest

import grid


def test_every_case_is_recorded():
    assert sorted(grid.load()) == sorted(grid.CASES)


@pytest.mark.parametrize("name", grid.CASES)
def test_case_matches_record(tmp_path, name):
    assert grid.run_case(name, tmp_path) == grid.load()[name]
