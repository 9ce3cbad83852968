"""Two-dimensional mass as a cone angle defect.

A surface of revolution with profile f(r) ~ alpha r is a cone of
opening alpha far out; its mass is the angle defect 1 - alpha.  Two
independent estimators (boundary turning and total curvature via
Gauss-Bonnet) must agree.  The residual below takes the total curvature
from the same stack as every other mass: matter_integral on the surface's
Cartesian chart is c_2 int R dA = (1/2 pi) int K dA at n = 2.
"""

import math

from afmass import (
    capped_cone,
    cone_mass,
    cone_metric_spec,
    matter_integral,
    perturbed_cone,
)

print("alpha   cone mass    1 - alpha   GB residual at r=16")
for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
    s = capped_cone(alpha)
    est = cone_mass(s)
    total_curvature = 2.0 * math.pi * matter_integral(cone_metric_spec(s), 0.0, 16.0)
    turning = 2.0 * math.pi * float(s.df(16.0))
    resid = total_curvature + turning - 2.0 * math.pi
    print(f"{alpha:4.2f}    {est.value:.10f}  {1 - alpha:.2f}        {resid:+.2e}")

print()
print("a decaying radial perturbation leaves the angle defect unchanged:")
p = perturbed_cone(0.7, amplitude=0.1, tau=1.0)
est = cone_mass(p, radii=(8.0, 16.0, 32.0, 64.0))
print(f"  perturbed alpha=0.7: mass {est.value:.6f} (expected 0.3)")
