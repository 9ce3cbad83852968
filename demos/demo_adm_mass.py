"""Recover the mass of a family of model metrics from flux integrals.

The flux of g - delta through large coordinate spheres converges to the
ADM mass.  We evaluate it on spheres of doubling radius and extrapolate
with a c0 + c1 r^{-p} model.
"""

import numpy as np

from afmass import adm_flux, adm_mass, harmonically_flat, schwarzschild

radii = (50.0, 100.0, 200.0, 400.0)

print("Schwarzschild, m = 1, dimensions 3..7")
for n in range(3, 8):
    spec = schwarzschild(n, 1.0)
    raw = [adm_flux(spec, r) for r in radii]
    est = adm_mass(spec, radii=radii)
    print(f"  n={n}  flux at r: " + "  ".join(f"{v:.6f}" for v in raw))
    print(f"       extrapolated mass {est.value:.8f}  (error bound {est.error:.1e})")

print()
print("harmonically flat, U = 1 + a/r, n = 3: mass is 2a")
for a in (0.25, 0.5, 1.0):
    est = adm_mass(harmonically_flat(3, a), radii=radii)
    print(f"  a={a:4.2f}  mass {est.value:.8f}  expected {2 * a:.2f}")

print()
print("the flux picks up only the 1/r^{n-2} tail: adding a harmonic dipole")
from afmass import conformally_flat, harmonic_dipole_field

spec = conformally_flat(3, harmonic_dipole_field(3, a=0.5, b=2.0))
est = adm_mass(spec, radii=radii, q=16)
print(f"  U = 1 + 0.5/r + 2 x^1/r^3  ->  mass {est.value:.6f}  (expected 1)")
