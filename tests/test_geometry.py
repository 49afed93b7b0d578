import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcircle.errors import ValidationError
from hypcircle.geometry import Point, distance, point_pair_u

points = st.builds(
    Point,
    st.floats(-5.0, 5.0),
    st.floats(0.05, 20.0),
)

S_MATRIX = np.array([[0, -1], [1, 0]])


def T_pow(k: int) -> np.ndarray:
    return np.array([[1, k], [0, 1]])


# words T^k1 S T^k2 S T^k3 as integer matrices (a, b, c, d)
elements = st.builds(
    lambda k1, k2, k3: tuple(int(e) for e in (T_pow(k1) @ S_MATRIX @ T_pow(k2) @ S_MATRIX
                                              @ T_pow(k3)).ravel()),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
)


def test_point_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        Point(0.0, 0.0)
    with pytest.raises(ValidationError):
        Point(1.0, -2.0)


def test_point_pair_u_examples():
    i = Point(0.0, 1.0)
    assert point_pair_u(i, i) == 0.0
    assert point_pair_u(i, Point(0.0, 2.0)) == pytest.approx(0.125, abs=1e-15)
    assert point_pair_u(Point(1.0, 1.0), i) == pytest.approx(0.25, abs=1e-15)


def test_distance_examples():
    i = Point(0.0, 1.0)
    assert distance(i, i) == 0.0
    assert distance(i, Point(0.0, 2.0)) == pytest.approx(math.log(2.0), rel=1e-14)
    assert distance(i, Point(0.0, math.e)) == pytest.approx(1.0, rel=1e-14)


def test_distance_small_u_branch():
    # vertical pair with tiny separation: d = log(y2/y1) analytically
    y = 1.0
    eps = 1e-9
    d = distance(Point(0.0, y), Point(0.0, y * (1.0 + eps)))
    assert d == pytest.approx(math.log1p(eps), rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(elements, points, points)
# image points near the real axis, where a careless Mobius map loses digits of Im gz
@example((8, -27, 3, -10), Point(0.0, 0.0625), Point(0.03125, 0.0546875))
def test_isometry(mobius, g, z, w):
    d1 = distance(z, w)
    d2 = distance(mobius(g, z), mobius(g, w))
    assert d2 == pytest.approx(d1, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_triangle_inequality(z, w, v):
    assert distance(z, w) <= distance(z, v) + distance(v, w) + 1e-12


@settings(max_examples=100, deadline=None)
@given(points, points)
def test_symmetry(z, w):
    assert distance(z, w) == pytest.approx(distance(w, z), rel=1e-14, abs=1e-300)
