"""A fast slice of the command-line byte-identity grid (grid.py); run the
whole grid with ``python tests/grid.py --check``."""

import pytest

import grid


def test_every_case_is_recorded():
    assert sorted(grid.load()) == sorted(grid.CASES)


@pytest.mark.parametrize("name", grid.SLICE)
def test_case_matches_record(tmp_path, name):
    assert grid.run_case(name, tmp_path) == grid.load()[name]
