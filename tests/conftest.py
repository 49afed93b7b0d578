import tracemalloc

import pytest

from hypcircle.counting import BallSpec, list_distances
from hypcircle.geometry import Point
from hypcircle.spectral import amplitude, bundled_dataset

I_POINT = Point(0.0, 1.0)


def _mobius(g, p: Point) -> Point:
    """z -> (az + b)/(cz + d) for an integer matrix g = (a, b, c, d) of determinant 1.

    The image is written out as Im gz = y / |cz + d|^2, which uses ad - bc = 1;
    complex division would form Im gz as (ad - bc) y by cancellation and lose
    digits when |c|, |d| are large.
    """
    a, b, c, d = g
    x, y = p.x, p.y
    denom = (c * x + d) ** 2 + (c * y) ** 2
    return Point(((a * x + b) * (c * x + d) + a * c * y * y) / denom, y / denom)


def _numpy_peak(fn) -> int:
    """Peak bytes that Python and numpy allocate while fn() runs (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def numpy_peak():
    """The peak allocation of a call, for memory bounds."""
    return _numpy_peak


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
