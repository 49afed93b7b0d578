#!/usr/bin/env python3
"""The spectral side: cusp forms, their values, and kernel transforms.

The bundled dataset carries the first two dozen cusp forms of the modular
surface.  Their values at z weight the frequencies t_j that drive the error
term's oscillation; the kernel transform supplies the damping coefficients.
"""

from hypcircle import Point
from hypcircle.spectral import amplitude, bundled_dataset, maass_value, shc_direct, shc_frac
from hypcircle.spectral.transforms import r_alpha

ds = bundled_dataset()
print(f"bundled dataset: {len(ds)} forms, eigenvalue parameters "
      f"{ds.forms[0].t:.4f} .. {ds.forms[-1].t:.4f}")

z = Point(0.0, 1.0)
print("\nform values at i (odd forms vanish there by symmetry):")
for f in ds.forms[:6]:
    print(f"  t = {f.t:9.5f} [{f.parity:>4}]  phi(i) = {maass_value(f, z):+.6f}")

amps = amplitude(ds, z, z)
print("\nspectral weights b_j = |phi_j(i)|^2 of the even forms:")
for a in amps:
    if abs(a.b) > 1e-12:
        print(f"  t = {a.t:9.5f}   b = {a.b:9.5f}")

print("\nkernel transform at radius 6: oscillatory decay like t^(-3/2):")
for t in (2.0, 8.0, 32.0, 128.0):
    v = shc_direct(6.0, t)
    print(f"  t = {t:6.1f}:  h(t) = {v:+.6e}   t^1.5 h = {t ** 1.5 * v:+.4f}")

print("\nfractional integration trades decay for smoothness; at order 0.25 the")
print("transform approaches its rotating main term Re(r(t) e^{its}):")
for t in (5.0, 20.0, 80.0):
    res = shc_frac(10.0, t, 0.25)
    print(f"  t = {t:5.1f}:  value = {res.value:+.6e}   main term = {res.asymptotic:+.6e}")
print(f"\n|r(t)| at order 0.25 decays like t^-1.75: "
      f"{abs(r_alpha(5.0, 0.25)):.4e} at t=5 vs {abs(r_alpha(80.0, 0.25)):.4e} at t=80")
