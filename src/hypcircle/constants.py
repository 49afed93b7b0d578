"""Pinned empirical constants.

Every constant below was measured on the bundled dataset / reference runs
and then pinned with margin; tests recompute the underlying quantity and
fail if it drifts past the pinned value or falls below half of it (a drift
of 2x in either direction means the build changed behaviour).  Measurement
provenance sits next to each value.
"""

# --- spectral amplitudes at z = w = i (bundled 24-form dataset) -------------

# sum_{t_j <= t_top} |b_j| / t_top^2 at t_top = 26.447: measured 0.0723.
WEYL_AMPLITUDE_SUM_C = 0.15

# sup_j |b_j| / t_j: measured 1.025 (the t=13.78 form dominates).
AMPLITUDE_OVER_T_C = 2.0

# --- kernel transforms ------------------------------------------------------

# |shc_frac - asymptotic| * |t|^{1+a} (1+sqrt|t|) over 97 geometric t in
# [5,100], s = 10: measured max 0.057558 (a=0.25), 0.312738 (a=0.5) with the
# composite Gauss-Jacobi rule, the same six digits as the former global
# Gauss-Jacobi rule; 0.0576, 0.3128 with the product rule at step 1/512.
SHC_FRAC_TAIL_C = 1.0

# shc_frac(s,t,a) * |t|^{3/2+a} over the same t at s = 10: measured max
# 3.550737 (a=0.25), 3.709152 (a=0.5) with the composite Gauss-Jacobi rule,
# the same six digits as the global rule; 3.5503, 3.7091 with the product
# rule at step 1/512 (recorded earlier as 3.51, 3.63 on an unstated t set);
# the main term alone contributes 2 sqrt(pi) ~ 3.54.
SHC_FRAC_DECAY_C = 8.0

# small-radius closed form: |value - quadrature| / error_bound at
# (R, t) = (0.3, 3), (0.5, 12), (0.8, 40): measured max 3.3e-3 for the one
# hypergeometric series (error_bound 1e-10 |value| + 1e-13); 0.19 for the
# former Bessel-J1 main term against its own envelope.
HR_SMALL_R_ENVELOPE_C = 1.0

# --- error-term experiments (z = w = i) --------------------------------------

# pointwise envelope constants sup_{s<=x}|e_a(s)| m(x), x in [8,14]:
# measured 1.12 (a=0.1), 1.51 (a=0.25), 0.37 (a=0.5, m=1/x),
# 2.81 (a=0.75), 3.11 (a=0.9).
POINTWISE_ENVELOPE_C = 3.5
POINTWISE_HALF_C = 1.0
POINTWISE_BOUNDED_C = 6.0

# hybrid schedule alpha(T)=1/sqrt(T), window [0,T]: variances at T in
# {6, 9, 12} measured (1.84, 1.21, 0.94).
HYBRID_VARIANCE_C = 4.0

# pre-trace residual |e(s) - smoothed spectral partial sum| averaged over
# s in [6, 10] at delta = 0.04 (Eisenstein term omitted, spectrum truncated
# at the bundled ceiling): measured mean 0.89 against rms(e) = 1.31.
PRETRACE_RESIDUAL_C = 2.0
