import pytest

from pendellosung import SILICON, BladeGeometry, SpectrumWindow, scattering_model, survey


@pytest.fixture(scope="session")
def si_model():
    """Silicon with the thermal-survey b_ne hypothesis (-1.31e-3 fm)."""
    return scattering_model(SILICON, -1.31e-3)


@pytest.fixture(scope="session")
def pure_plans():
    return survey(SILICON).pure


@pytest.fixture(scope="session")
def default_window():
    return SpectrumWindow()


@pytest.fixture(scope="session")
def blade():
    return BladeGeometry(thickness_cm=1.0)
