"""Upper half-plane geometry: points, the point-pair invariant and distances.

Points are stored as coordinate pairs so the y > 0 invariant is enforced at
construction; operations may use complex arithmetic internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Below this point-pair invariant the acosh form loses all significant
# digits, so we switch to the leading term acosh(1 + 2u) ~ 2 sqrt(u).
_U_TINY = 1e-14


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
    """Distances acosh(2u + 1) for an array of point-pair invariants u >= 0."""
    dist = np.arccosh(2.0 * u + 1.0)
    tiny = u < _U_TINY
    if np.any(tiny):
        dist[tiny] = 2.0 * np.sqrt(u[tiny])
    return dist
