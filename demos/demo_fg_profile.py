"""Quasi-local mass profile over coordinate spheres.

fg(S_r) combines the area of the sphere, the largest squared mean
curvature and the smallest intrinsic scalar curvature.  On model
metrics it approaches the ADM mass from inside as r grows.
"""

from afmass import (
    conformally_flat,
    fg,
    fg_detail,
    fg_limit,
    harmonic_dipole_field,
    penrose_like_check,
    schwarzschild,
)

spec = schwarzschild(3, 1.0)
print("Schwarzschild n=3, m=1: fg(S_r) equals the mass at every radius")
for r in (10.0, 50.0, 200.0):
    d = fg_detail(spec, r)
    print(f"  r={r:6.1f}  fg={d['fg']:.12f}  area={d['area']:.4e}"
          f"  maxH2={d['maxH2']:.3e}  rho_min={d['rho_min']:.3e}")

print()
print("with a dipole in the conformal factor the approach is first order")
dip = conformally_flat(3, harmonic_dipole_field(3, a=0.5, b=2.0))
prev = None
for r in (50.0, 100.0, 200.0, 400.0):
    v = fg(dip, r, q=16)
    note = ""
    if prev is not None:
        note = f"  residual ratio {prev / (1.0 - v):.3f}"
    prev = 1.0 - v
    print(f"  r={r:6.1f}  fg={v:.6f}{note}")
est = fg_limit(dip, radii=(50.0, 100.0, 200.0, 400.0), q=16)
print(f"  extrapolated limit {est.value:.6f}  (mass is 1)")

print()
print("hypothesis check: rho_min > (n-2)/(n-1) maxH2 and fg <= mass")
rec = penrose_like_check(spec, 20.0)
print(f"  r=20: hypothesis_holds={rec['hypothesis_holds']}"
      f"  fg={rec['fg']:.6f} <= mass={rec['mass']:.6f}")
