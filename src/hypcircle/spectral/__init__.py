"""Spectral side: Maass form data, integral transforms, and variance sums."""

from .data import (
    SpectralDatum,
    SpectralDataset,
    load_spectral_data,
    bundled_dataset,
    maass_value,
    normalize_l2,
    amplitude,
    Amplitude,
)
from .transforms import shc_direct, h_r_closed, shc_frac, r_alpha, ShcFracResult, HrResult
from .terms import (
    spectral_variance,
    VarianceSum,
    f_alpha_sum,
)

__all__ = [
    "SpectralDatum",
    "SpectralDataset",
    "load_spectral_data",
    "bundled_dataset",
    "maass_value",
    "normalize_l2",
    "amplitude",
    "Amplitude",
    "shc_direct",
    "h_r_closed",
    "shc_frac",
    "r_alpha",
    "ShcFracResult",
    "HrResult",
    "spectral_variance",
    "VarianceSum",
    "f_alpha_sum",
]
