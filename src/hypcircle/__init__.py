"""Numerical laboratory for the hyperbolic lattice-point problem on the modular surface."""

from .geometry import Point, point_pair_u, distance
from .counting import (
    BallSpec,
    DistanceMultiset,
    count_ball,
    list_distances,
    brute_force_count,
    required_entry_bound,
)
from .fracint import (
    SampledSeries,
    frac_integrate,
    frac_exp_reference,
    frac_indicator_exp,
)
from . import specfun, spectral, experiments

__all__ = [
    "Point",
    "point_pair_u",
    "distance",
    "BallSpec",
    "DistanceMultiset",
    "count_ball",
    "list_distances",
    "brute_force_count",
    "required_entry_bound",
    "SampledSeries",
    "frac_integrate",
    "frac_exp_reference",
    "frac_indicator_exp",
    "specfun",
    "spectral",
    "experiments",
]

__version__ = "0.1.0"
