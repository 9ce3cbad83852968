"""Two-dimensional surfaces asymptotic to cones and their angle-defect mass.

A rotationally symmetric surface g = dr^2 + f(r)^2 dtheta^2 with
f(r) / r -> alpha as r -> infinity is asymptotic to a cone of opening alpha
in (0, 1]; its mass is the angle defect

    m = 1 - alpha.

Two independent routes compute it:

* the geodesic-curvature route: for circles r = const the total turning is
  int kappa_g ds = 2 pi f'(r) -> 2 pi alpha, so extrapolating
  1 - f'(r) gives the mass;

* the Gauss-Bonnet route: int_{B_r} K dA = 2 pi chi - int kappa_g ds, so
  (2 pi chi - total curvature) / (2 pi) - (chi - 1) has the same limit.

K = -f''/f is the closed form; the tests cross-check it with the generic
Christoffel computation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mass import extrapolate
from .metrics import Family, GeometryError, MetricSpec, NotPositiveDefinite

__all__ = [
    "MissingCap",
    "EstimatesDisagree",
    "ConicalSurface",
    "capped_cone",
    "perturbed_cone",
    "gauss_curvature",
    "geodesic_curvature_integral",
    "total_gauss_curvature",
    "cone_mass",
    "cone_semicontinuity_experiment",
    "CONE_EXPERIMENT_KINDS",
    "Cone2DFamily",
    "cone_metric_spec",
    "cone_blow_up_profile",
]


class MissingCap(GeometryError):
    """Total curvature requested for a profile with no regular cap at r=0."""


class EstimatesDisagree(GeometryError):
    """Geodesic-curvature and Gauss-Bonnet mass estimates are inconsistent."""


@dataclass(frozen=True)
class ConicalSurface:
    """Surface dr^2 + f(r)^2 dtheta^2 with analytic f, f', f''.

    alpha is the asymptotic opening f(r)/r -> alpha; euler tells whether the
    surface closes up smoothly at r = 0 (chi = 1) or the origin is excluded
    (no cap; only annular quantities are defined)."""

    f: callable
    df: callable
    d2f: callable
    alpha: float
    euler: int = 1
    has_cap: bool = True
    transition_radius: float = 1.0
    name: str = "cone"
    #: serialization extras (perturbation parameters etc.)
    meta: tuple = ()


def capped_cone(alpha, name="capped_cone"):
    """Cone of opening alpha smoothed to a C^2 cap inside r < 1.

    f(r) = r (alpha + (1 - alpha)(1 - r^2)^3) for r < 1, alpha r outside:
    f'(0) = 1 (smooth pole), and f, f', f'' match at r = 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("opening must lie in (0, 1]")
    b = 1.0 - alpha

    def f(r):
        r = np.asarray(r, dtype=float)
        w = np.clip(1.0 - r ** 2, 0.0, None)
        return r * (alpha + b * w ** 3)

    def df(r):
        r = np.asarray(r, dtype=float)
        w = np.clip(1.0 - r ** 2, 0.0, None)
        return alpha + b * w ** 3 - 6.0 * b * r ** 2 * w ** 2

    def d2f(r):
        r = np.asarray(r, dtype=float)
        w = np.clip(1.0 - r ** 2, 0.0, None)
        return -18.0 * b * r * w ** 2 + 24.0 * b * r ** 3 * w

    return ConicalSurface(f=f, df=df, d2f=d2f, alpha=alpha, euler=1,
                          has_cap=True, transition_radius=1.0, name=name)


def perturbed_cone(alpha, amplitude=0.1, tau=1.0, name="perturbed_cone"):
    """Capped cone with a decaying radial perturbation of the circumference.

    f gains amplitude * r^{-tau} * z(r) with a C^2 cutoff z supported in
    r > 1, so the opening (and the mass) is unchanged while the approach to
    the exact cone is O(r^{-tau})."""
    base = capped_cone(alpha)

    # cutoff z(r) = (1 - 1/r^2)^3 for r > 1: C^2 at r = 1, -> 1 at infinity
    def z(r):
        w = np.clip(1.0 - r ** -2.0, 0.0, None)
        return w ** 3

    def dz(r):
        w = np.clip(1.0 - r ** -2.0, 0.0, None)
        return 6.0 * w ** 2 * r ** -3.0 * (r > 1.0)

    def d2z(r):
        w = np.clip(1.0 - r ** -2.0, 0.0, None)
        return (24.0 * w * r ** -6.0 - 18.0 * w ** 2 * r ** -4.0) * (r > 1.0)

    def f(r):
        r = np.asarray(r, dtype=float)
        return base.f(r) + amplitude * r ** -tau * z(r)

    def df(r):
        r = np.asarray(r, dtype=float)
        return (base.df(r) - amplitude * tau * r ** (-tau - 1.0) * z(r)
                + amplitude * r ** -tau * dz(r))

    def d2f(r):
        r = np.asarray(r, dtype=float)
        return (base.d2f(r)
                + amplitude * tau * (tau + 1.0) * r ** (-tau - 2.0) * z(r)
                - 2.0 * amplitude * tau * r ** (-tau - 1.0) * dz(r)
                + amplitude * r ** -tau * d2z(r))

    return ConicalSurface(f=f, df=df, d2f=d2f, alpha=alpha, euler=1,
                          has_cap=True, transition_radius=1.0, name=name,
                          meta=(("perturbation", amplitude), ("tau", tau)))


def gauss_curvature(surface, r):
    """Gauss curvature K(r) = -f''(r) / f(r)."""
    r = np.asarray(r, dtype=float)
    return -surface.d2f(r) / surface.f(r)


def geodesic_curvature_integral(surface, r):
    """Total turning int_{r=const} kappa_g ds = 2 pi f'(r), in closed form.

    kappa_g = f'/f and ds = f dtheta are constant on the circle, so no
    quadrature is involved; cone_mass's consistency check therefore compares
    this closed form with the Gauss-Bonnet quadrature of the curvature."""
    return 2.0 * math.pi * float(surface.df(np.array([float(r)]))[0])


def total_gauss_curvature(surface, r, radial_q=None):
    """int_{B_r} K dA = 2 pi (f'(0) - f'(r)) for a capped profile.

    Evaluated by panel-wise Gauss quadrature of K f dr (the closed form
    2 pi (1 - f'(r)) is the oracle in the tests, not used here)."""
    if not surface.has_cap:
        raise MissingCap("profile is not regular at r = 0")
    r = float(r)
    if radial_q is None:
        radial_q = 128
    edges = [0.0]
    t = surface.transition_radius
    # the cap boundary is always a panel edge (f is only piecewise smooth
    # there); past it, geometric panels resolve slowly decaying tails
    while t < r:
        edges.append(t)
        t *= 2.0
    edges.append(r)
    xg, wg = np.polynomial.legendre.leggauss(radial_q)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = 0.5 * (hi - lo) * (xg + 1.0) + lo
        w = 0.5 * (hi - lo) * wg
        K = gauss_curvature(surface, s)
        total += float(np.dot(w, K * surface.f(s)))
    return 2.0 * math.pi * total


def cone_mass(surface, radii=(4.0, 8.0, 16.0, 32.0), consistency_tol=1e-6):
    """Angle-defect mass 1 - alpha, extrapolated from finite radii.

    Computes both the turning-angle route and the Gauss-Bonnet route at
    every radius, checks they agree, and extrapolates 1 - f'(r) with a
    c0 + c1 r^{-p} model (p = 2 covers both the cap and the default
    perturbation)."""
    radii = tuple(float(r) for r in radii)
    turning = []
    gb = []
    for r in radii:
        t = 1.0 - geodesic_curvature_integral(surface, r) / (2.0 * math.pi)
        turning.append(t)
        if surface.has_cap:
            # int K = 2 pi chi - int kappa_g, so total/2pi + (1 - chi)
            # has the same r -> infinity limit as 1 - f'(r)
            total = total_gauss_curvature(surface, r)
            gb.append(total / (2.0 * math.pi) + (1 - surface.euler))
    if gb:
        worst = max(abs(a - b) for a, b in zip(turning, gb))
        if worst > consistency_tol:
            raise EstimatesDisagree(
                f"turning-angle and curvature-integral estimates differ by {worst:.3e}"
            )
    return extrapolate(radii, turning, 2.0)


def cone_blow_up_profile(surface, i):
    """Rescaled profile f_i(r) = i f(r / i): same opening, cap shrunk away.

    As i -> 0 the surface converges locally (away from the tip) to the exact
    cone; as i -> infinity it flattens toward the plane when f'(0) = 1."""

    def f(r):
        return i * surface.f(np.asarray(r, dtype=float) / i)

    def df(r):
        return surface.df(np.asarray(r, dtype=float) / i)

    def d2f(r):
        return surface.d2f(np.asarray(r, dtype=float) / i) / i

    return ConicalSurface(
        f=f, df=df, d2f=d2f, alpha=surface.alpha, euler=surface.euler,
        has_cap=surface.has_cap, transition_radius=i * surface.transition_radius,
        name=f"{surface.name}@{i}",
    )


class Cone2DFamily(Family):
    """Cartesian-chart wrapper of a conical surface (for window machinery).

    In coordinates x = (r cos theta, r sin theta) the metric is
    delta + (f(r)^2/r^2 - 1) (dtheta-part); derivatives by FD.  It is
    positive definite where f != 0; NotPositiveDefinite elsewhere."""

    name = "Cone2D"
    excludes_origin = True
    has_analytic_derivatives = False
    rotationally_symmetric = True

    def __init__(self, surface, inner_radius=0.0):
        self.surface = surface
        self.n = 2
        self.inner_radius = inner_radius
        self.flux_decay_order = 1.0
        self.mass_hint = 1.0 - surface.alpha

    def metric(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(x, axis=1)
        f = self.surface.f(r)
        if np.any(f == 0.0):
            raise NotPositiveDefinite(
                f"{self.name}: f = 0 at r = {r[f == 0.0][:3]}"
            )
        # radial/tangential projectors: g = P_rad + (f/r)^2 P_tan
        nhat = x / r[:, None]
        P = np.einsum("ni,nj->nij", nhat, nhat)
        ratio = (f / r) ** 2
        return P + ratio[:, None, None] * (np.eye(2)[None] - P)

    def params_json(self):
        out = {"alpha": self.surface.alpha}
        out.update(dict(self.surface.meta))
        return out


def cone_metric_spec(surface, **kw):
    kw.setdefault("derivative_mode", "fd")
    return MetricSpec(Cone2DFamily(surface), **kw)


def _profile_c2_distance(prof, reference, rr):
    """C^2 distance of two rotation profiles on the radii rr.

    Compares the scale-free circumference ratio f/r plus both derivatives;
    reference may be None (flat plane: f = r)."""
    if reference is None:
        return max(
            float(np.abs(prof.f(rr) / rr - 1.0).max()),
            float(np.abs(prof.df(rr) - 1.0).max()),
            float(np.abs(prof.d2f(rr)).max()),
        )
    return max(
        float(np.abs((prof.f(rr) - reference.f(rr)) / rr).max()),
        float(np.abs(prof.df(rr) - reference.df(rr)).max()),
        float(np.abs(prof.d2f(rr) - reference.d2f(rr)).max()),
    )


CONE_EXPERIMENT_KINDS = ("blow_up", "escaping", "constant")


def cone_semicontinuity_experiment(kind="blow_up", alpha=0.7,
                                   indices=(4, 8, 16, 32),
                                   window=(0.5, 1.0), samples=64,
                                   amplitude=0.1, tau=1.0):
    """Semicontinuity experiments for the cone-angle mass.

    blow_up   rescaled caps f_i(r) = i f(r/i): every member keeps mass
              1 - alpha, yet on a fixed annulus the surfaces flatten to the
              plane (limit mass 0) at C^2 rate i^{-2} -- a strict drop.
    escaping  windows of a perturbed cone around escaping radii: the limit
              is the exact cone, same mass, drop 0, rate i^{-(tau+1)}.
    constant  the same surface at every index; distances exactly zero.
    """
    from .sequences import ExperimentReport, _fit_exponent

    if kind not in CONE_EXPERIMENT_KINDS:
        raise ValueError(f"kind must be one of {CONE_EXPERIMENT_KINDS}")
    lo, hi = window
    masses = []
    distances = []
    if kind == "blow_up":
        base = capped_cone(alpha)
        rr = np.linspace(lo, hi, samples)
        for i in indices:
            prof = cone_blow_up_profile(base, float(i))
            # evaluation radii must clear the rescaled cap
            masses.append(
                cone_mass(prof, radii=(4.0 * i, 8.0 * i, 16.0 * i, 32.0 * i)).value
            )
            distances.append(_profile_c2_distance(prof, None, rr))
        limit_mass = 0.0
        expected = 2.0
        label = f"cone cap blow-up (alpha={alpha})"
    elif kind == "escaping":
        prof = perturbed_cone(alpha, amplitude=amplitude, tau=tau)
        exact = capped_cone(alpha)
        for i in indices:
            rr = np.linspace(4.0 * i * lo, 4.0 * i * hi, samples)
            masses.append(cone_mass(prof, radii=tuple(2.0 ** k * i for k in range(2, 6))).value)
            distances.append(_profile_c2_distance(prof, exact, rr))
        limit_mass = 1.0 - alpha
        expected = tau + 1.0
        label = f"escaping windows on perturbed cone (alpha={alpha})"
    else:
        base = capped_cone(alpha)
        m = cone_mass(base).value
        masses = [m for _ in indices]
        distances = [0.0 for _ in indices]
        limit_mass = m
        expected = math.inf
        label = f"constant cone sequence (alpha={alpha})"
    exponent = _fit_exponent(indices, distances)
    liminf = min(masses[-2:]) if len(masses) >= 2 else masses[-1]
    return ExperimentReport(
        label=label, kind=f"cone_{kind}",
        indices=tuple(int(i) for i in indices), masses=tuple(masses),
        limit_mass=limit_mass, distances=tuple(distances), exponent=exponent,
        expected_exponent=expected, verdict=liminf >= limit_mass - 1e-9,
        drop=liminf - limit_mass,
        details={"alpha": alpha, "window": list(window)},
    )
