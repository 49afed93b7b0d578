"""Upper half-plane geometry and the modular group PSL(2,Z).

Points are stored as coordinate pairs so the y > 0 invariant is enforced at
construction; operations may use complex arithmetic internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegerOverflow, ValidationError

_INT64_MAX = 2**63 - 1

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

    @classmethod
    def from_complex(cls, z: complex) -> "Point":
        return cls(z.real, z.imag)


@dataclass(frozen=True)
class GroupElement:
    """An element of PSL(2,Z): an integer matrix [[a,b],[c,d]] modulo sign.

    The stored representative has canonical sign: c > 0, or c = 0 and d > 0.
    Entries are checked against 64-bit range; determinant must be exactly 1.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        for entry in (a, b, c, d):
            if not isinstance(entry, int):
                raise ValidationError(f"entries must be integers, got {entry!r}")
            if abs(entry) > _INT64_MAX:
                raise IntegerOverflow(f"entry {entry} exceeds 64-bit range")
        if a * d - b * c != 1:
            raise ValidationError(f"determinant must be 1, got {a * d - b * c}")
        if c < 0 or (c == 0 and d < 0):
            object.__setattr__(self, "a", -a)
            object.__setattr__(self, "b", -b)
            object.__setattr__(self, "c", -c)
            object.__setattr__(self, "d", -d)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Matrix product self * other (as maps: self after other)."""
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)


IDENTITY = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)  # z -> -1/z
T = GroupElement(1, 1, 0, 1)  # z -> z + 1


def mobius_apply(g: GroupElement, z: Point) -> Point:
    """Apply the fractional-linear map g to z; the result stays in the upper half-plane."""
    zc = z.z
    wc = (g.a * zc + g.b) / (g.c * zc + g.d)
    return Point(wc.real, wc.imag)


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
