"""Two-dimensional mass as a cone angle defect.

A surface of revolution with profile f(r) ~ alpha r is a cone of
opening alpha far out; its mass is the angle defect 1 - alpha.  Two
independent estimators (boundary turning and total curvature via
Gauss-Bonnet) must agree.
"""

import math

from afmass import (
    capped_cone,
    cone_mass,
    geodesic_curvature_integral,
    perturbed_cone,
    total_gauss_curvature,
)

print("alpha   cone mass    1 - alpha   GB residual at r=16")
for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
    s = capped_cone(alpha)
    est = cone_mass(s)
    resid = (
        total_gauss_curvature(s, 16.0)
        + geodesic_curvature_integral(s, 16.0)
        - 2.0 * math.pi
    )
    print(f"{alpha:4.2f}    {est.value:.10f}  {1 - alpha:.2f}        {resid:+.2e}")

print()
print("a decaying radial perturbation leaves the angle defect unchanged:")
p = perturbed_cone(0.7, amplitude=0.1, tau=1.0)
est = cone_mass(p, radii=(8.0, 16.0, 32.0, 64.0))
print(f"  perturbed alpha=0.7: mass {est.value:.6f} (expected 0.3)")
