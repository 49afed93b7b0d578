"""Spectral second-moment sums and the almost-periodic model of e_alpha.

The counting main term is pi e^s / vol = 3 e^s for the modular covolume pi/3;
the secondary terms of the general formula (small eigenvalues, eigenvalue 1/4,
cusp values at the centre of the critical line) all vanish for PSL(2,Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..specfun import _as_alpha
from .data import Amplitude
from .transforms import r_alpha

__all__ = [
    "MODULAR_COVOLUME",
    "spectral_variance",
    "VarianceSum",
    "f_alpha_sum",
    "weyl_b_constant",
]

# Hyperbolic area of the modular surface.
MODULAR_COVOLUME = math.pi / 3.0

_VOL_COEFF = math.pi / MODULAR_COVOLUME  # = 3 for the modular group


@dataclass(frozen=True)
class VarianceSum:
    """Partial spectral variance sum with a growth-extrapolated tail bound."""

    value: float
    tail_bound: float
    terms: int


def weyl_b_constant(amplitudes: list[Amplitude]) -> float:
    """Quadratic-growth constant of cumulative |b_j|^2, estimated at the
    largest available spectral parameter: sum_{t_j <= t_top} |b_j|^2 / t_top^2.

    The endpoint estimator tracks the asymptotic law; a sup over all T would
    be dominated by whichever single form happens to be largest early on.
    """
    if not amplitudes:
        return 0.0
    t_top = max(a.t for a in amplitudes)
    return sum(abs(a.b) ** 2 for a in amplitudes) / t_top ** 2


def spectral_variance(amplitudes, order, t_max: float) -> VarianceSum:
    """Partial sum of 1/2 |r_alpha(t_j)|^2 |b_j|^2, that is
    2 pi |Gamma(it_j)|^2 |b_j|^2 / |t_j^a Gamma(3/2+it_j)|^2.

    tail_bound is the remainder estimate obtained by continuing the measured
    quadratic growth of cumulative |b_j|^2 as a density 2 C_b u du against
    the summand envelope 2 pi coth(pi u) u^{-3-2a}:

        tail = 2 pi coth(pi t_max) * 2 C_b / (1 + 2a) * t_max^{-1-2a}.

    It is an extrapolation report, not a proof; on the bundled data the
    internal partial sums stay well inside it.  t_max = inf takes the tail past
    the top form; an empty list, with no growth to read, reports an infinite tail.
    """
    alpha = _as_alpha(order)
    amps = list(amplitudes)
    inside = [a for a in amps if 0.0 < a.t <= t_max]
    value = sum(0.5 * abs(r_alpha(a.t, alpha)) ** 2 * abs(a.b) ** 2 for a in inside)
    if not amps:
        return VarianceSum(value=0.0, tail_bound=math.inf, terms=0)
    c_b = weyl_b_constant(amps)
    t_ref = max(t_max if t_max < math.inf else max(a.t for a in amps), 1.0)
    tail = (2.0 * math.pi / math.tanh(math.pi * t_ref)
            * 2.0 * c_b / (1.0 + 2.0 * alpha) * t_ref ** (-1.0 - 2.0 * alpha))
    return VarianceSum(value=float(value), tail_bound=float(tail), terms=len(inside))


def f_alpha_sum(amplitudes, order, s):
    """Finite trigonometric model sum_j Re(r_alpha(t_j) e^{i t_j s}) b_j.

    Vectorized over s; b_j is real and r_alpha(t_j) complex, so each summand
    is Re(c_j) cos(t_j s) - Im(c_j) sin(t_j s) with c_j = r_alpha(t_j) b_j.
    Terms with b_j = 0 (odd forms on the imaginary axis) add exactly zero
    and are skipped.
    """
    s_arr = np.asarray(s, dtype=float)
    out = np.zeros(s_arr.shape)
    for t, c in zip(*_model_terms(amplitudes, _as_alpha(order))):
        out = out + c.real * np.cos(t * s_arr) - c.imag * np.sin(t * s_arr)
    return float(out) if s_arr.ndim == 0 else out


def _model_terms(amplitudes, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies t_j and coefficients c_j = r_alpha(t_j) b_j of the model's terms.

    Only t_j > 0 and b_j != 0 are kept: a zero amplitude (an odd form on the
    imaginary axis) adds exactly zero.
    """
    amps = [a for a in amplitudes if a.t > 0.0 and a.b != 0.0]
    t = np.array([a.t for a in amps], dtype=float)
    c = np.array([r_alpha(a.t, alpha) * a.b for a in amps], dtype=complex)
    return t, c
