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


@pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8])
def test_distance_near_coincident_full_precision(gap):
    # d(iy, iy e^g) = g exactly; y e^g is rounded, so compare with log of the
    # stored ratio. acosh(1 + 2u) lost up to 1e-3 relative here (u ~ gap^2 / 4)
    y = 1.0
    y2 = y * math.exp(gap)
    assert distance(Point(0.0, y), Point(0.0, y2)) == pytest.approx(math.log(y2 / y), rel=1e-14, abs=0.0)


# Rounding error of the Mobius images, in units of the ulp sensitivity below:
# measured at most 11.5 over 150,000 random pairs whose bound it dominates.
ULP_FACTOR = 32.0


def ulp_sensitivity(p: Point, q: Point) -> float:
    """Change of d(p, q) when each of the four coordinates moves by one ulp.

    With u = |p - q|^2 / (4 y_p y_q) and rho = |p - q|, d = acosh(1 + 2u) has
    |dd/dx_p| = |dx| / (rho sqrt(y_p y_q (1 + u))) and
    |dd/dy_p| <= |dy| / (rho sqrt(y_p y_q (1 + u))) + sqrt(u / (1 + u)) / y_p.
    Near-coincident images far from i make it large: the images are only
    known to an ulp, and d is their small difference.
    """
    dx, dy = p.x - q.x, p.y - q.y
    rho = math.hypot(dx, dy)
    u = rho * rho / (4.0 * p.y * q.y)
    base = 1.0 / math.sqrt(p.y * q.y * (1.0 + u))
    ex, ey = (abs(dx) / rho, abs(dy) / rho) if rho > 0.0 else (1.0, 1.0)
    shift = math.sqrt(u / (1.0 + u))
    return (base * ex * (math.ulp(p.x) + math.ulp(q.x))
            + (base * ey + shift / p.y) * math.ulp(p.y)
            + (base * ey + shift / q.y) * math.ulp(q.y))


def isometry_tolerance(d: float, gz: Point, gw: Point) -> float:
    """1e-12 (relative, or absolute below d = 1) plus the images' conditioning."""
    return 1e-12 * max(d, 1.0) + ULP_FACTOR * ulp_sensitivity(gz, gw)


@settings(max_examples=200, deadline=None)
@given(elements, points, points)
# image points near the real axis, where a careless Mobius map loses digits of Im gz
@example((8, -27, 3, -10), Point(0.0, 0.0625), Point(0.03125, 0.0546875))
# near-coincident points: one ulp of an image's real part moves d by 5.6e-10 relative
@example((-1, -3, -3, -10), Point(0.0, 0.05), Point(1e-5, 0.05))
# u ~ 5e-13, where acosh(1 + 2u) loses a quarter of u's digits to the rounding of 1 + 2u
@example((1, -1, -1, 2), Point(0.0, 0.05186076498120967),
         Point(-4.2056041148403533e-08, 0.051860707924155765))
def test_isometry(mobius, g, z, w):
    d1 = distance(z, w)
    gz, gw = mobius(g, z), mobius(g, w)
    assert abs(distance(gz, gw) - d1) <= isometry_tolerance(d1, gz, gw)


def test_isometry_tolerance_is_tight_when_well_conditioned(mobius):
    # the conditioning term only widens the bound where the images force it:
    # a distance off by 1e-9 relative on a well-conditioned pair still fails
    g, z, w = (2, 1, 1, 1), Point(0.3, 1.2), Point(-0.7, 2.5)
    d = distance(z, w)
    tol = isometry_tolerance(d, mobius(g, z), mobius(g, w))
    assert tol <= 1.1e-12 * max(d, 1.0) < 1e-9 * d


@settings(max_examples=200, deadline=None)
@given(points, points, points)
def test_triangle_inequality(z, w, v):
    assert distance(z, w) <= distance(z, v) + distance(v, w) + 1e-12


@settings(max_examples=100, deadline=None)
@given(points, points)
def test_symmetry(z, w):
    assert distance(z, w) == pytest.approx(distance(w, z), rel=1e-14, abs=1e-300)
