import numpy as np
import pytest

from gaugeflow.experiments import rng_for
from gaugeflow.field import AnalyticField, Torus
from gaugeflow.path import make_curve


@pytest.fixture(scope="session")
def torus2():
    return Torus(2, 1.0)


@pytest.fixture(scope="session")
def su2_field(torus2):
    """Small non-commuting two-mode field used across the unit tests."""
    return AnalyticField.random_su(
        rng_for(7, "unit/field"), torus2, n=2, modes=2, amplitude=0.3, kmax=2
    )


@pytest.fixture(scope="session")
def su3_field(torus2):
    """The su(3) field of the same draw and sizes."""
    return AnalyticField.random_su(
        rng_for(7, "unit/field"), torus2, n=3, modes=2, amplitude=0.3, kmax=2
    )


@pytest.fixture(scope="session")
def abelian_field(torus2):
    return AnalyticField.random_abelian(
        rng_for(7, "unit/abelian"), torus2, n=2, modes=3, amplitude=0.25, kmax=2
    )


@pytest.fixture(scope="session")
def wiggly_curve():
    return make_curve({"kind": "fourier", "seed": 301, "modes": 3, "amplitude": 0.2}, d=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
