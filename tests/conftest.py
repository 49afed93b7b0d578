import pytest

from hypcircle.counting import BallSpec, list_distances
from hypcircle.geometry import Point
from hypcircle.spectral import amplitude, bundled_dataset

I_POINT = Point(0.0, 1.0)


def _mobius(g, p: Point) -> Point:
    """z -> (az + b)/(cz + d) for an integer matrix g = (a, b, c, d) of determinant 1."""
    a, b, c, d = g
    z = (a * p.z + b) / (c * p.z + d)
    return Point(z.real, z.imag)


@pytest.fixture(scope="session")
def mobius():
    """The Mobius action, written independently of the package, for invariance checks."""
    return _mobius


@pytest.fixture(scope="session")
def distances_14():
    """One enumeration at the desk ceiling, shared by the heavy experiments."""
    return list_distances(BallSpec(I_POINT, I_POINT, 14.0))


@pytest.fixture(scope="session")
def dataset_session():
    return bundled_dataset()


@pytest.fixture(scope="session")
def amplitudes_ii(dataset_session):
    return amplitude(dataset_session, I_POINT, I_POINT)
