"""Upper half-plane geometry: points, the point-pair invariant, distances and
reduction to the fundamental domain.

Points are stored as coordinate pairs so the y > 0 invariant is enforced at
construction; operations may use complex arithmetic internally.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["Point", "point_pair_u", "distance", "distance_from_u", "pullback"]

_MAX_RADIUS = 709.78  # log of the largest double: cosh and sinh overflow past it


@dataclass(frozen=True)
class Point:
    """A point x + iy of the hyperbolic upper half-plane, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"point coordinates must be finite, got ({self.x}, {self.y})")
        if not self.y > 0.0:
            raise ValidationError(f"point must satisfy y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def point_pair_u(z: Point, w: Point) -> float:
    """Point-pair invariant u(z,w) = |z-w|^2 / (4 Im z Im w); zero iff z = w."""
    dx = z.x - w.x
    dy = z.y - w.y
    return (dx * dx + dy * dy) / (4.0 * z.y * w.y)


def distance(z: Point, w: Point) -> float:
    """Hyperbolic distance, computed through cosh d = 2u + 1."""
    return float(distance_from_u(np.array([point_pair_u(z, w)]))[0])


def distance_from_u(u: np.ndarray) -> np.ndarray:
    """Distances acosh(2u + 1) = 2 asinh(sqrt u) for point-pair invariants u >= 0.

    The asinh form keeps full relative precision as u -> 0, where forming
    2u + 1 rounds away u's digits (1.6e-3 relative error at u = 1e-14).
    """
    return 2.0 * np.arcsinh(np.sqrt(u))


def pullback(z: Point) -> Point:
    """Translate z into the standard fundamental domain |x| <= 1/2, |z| >= 1."""
    x, y = z.x, z.y
    for _ in range(200):
        x -= round(x)
        n2 = x * x + y * y
        if n2 >= 1.0 - 1e-15:
            return Point(x, y)
        if n2 < sys.float_info.min:
            raise ValidationError(f"{z} lies too close to a cusp: |z|^2 underflows in its reduction")
        x, y = -x / n2, y / n2
    raise ValidationError(f"fundamental-domain reduction did not terminate for {z}")
