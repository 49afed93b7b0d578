#!/usr/bin/env python3
"""Limiting distributions: arcsine law for one frequency, stabilization for many.

A single almost-periodic component A cos(t s + phase) spends most of its time
near the extremes, giving the arcsine law.  Superposing the bundled
frequencies produces a smooth, rapidly stabilizing limiting distribution.
"""

import math

import numpy as np

from hypcircle import Point
from hypcircle.spectral import Amplitude, amplitude, bundled_dataset
from hypcircle.spectral.transforms import r_alpha
from hypcircle.experiments import distribution_estimate, synthetic_series

alpha = 0.25

print("single frequency vs the arcsine law:")
single = [Amplitude(10.0, 1.0)]
ser1 = synthetic_series(single, alpha, 5.0e4, step=1.0 / 128.0)
A = abs(r_alpha(10.0, alpha))
vals = np.sort(ser1.values)
n = vals.size
cdf = 0.5 + np.arcsin(np.clip(vals / A, -1.0, 1.0)) / math.pi
ks = float(np.max(np.abs(np.arange(1, n + 1) / n - cdf)))
print(f"  amplitude A = {A:.5f}; Kolmogorov-Smirnov distance to arcsine = {ks:.5f}")

print("\nall bundled frequencies at z = w = i:")
z = Point(0.0, 1.0)
amps = amplitude(bundled_dataset(), z, z)
ser = synthetic_series(amps, alpha, 1.0e5, step=1.0 / 128.0)
est = distribution_estimate(ser, bins=15)
print(f"  {est.count} samples: mean = {est.mean:+.2e}, variance = {est.variance:.5f}")
print(f"  first-half vs second-half KS distance = {est.ks_halves:.5f}")

print("\nhistogram (normalized):")
peak = est.counts.max()
for lo, hi, c in zip(est.edges[:-1], est.edges[1:], est.counts):
    bar = "#" * int(50 * c / peak)
    print(f"  [{lo:+.3f}, {hi:+.3f})  {bar}")
top = int(np.argmax(est.counts))
print(f"\nthe histogram peaks in [{est.edges[top]:+.3f}, {est.edges[top + 1]:+.3f})")
