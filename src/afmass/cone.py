"""Two-dimensional surfaces asymptotic to cones and their angle-defect mass.

A rotationally symmetric surface g = dr^2 + f(r)^2 dtheta^2 with
f(r) / r -> alpha as r -> infinity is asymptotic to a cone of opening alpha
in (0, 1]; its mass is the angle defect

    m = 1 - alpha.

Two independent routes compute it:

* the geodesic-curvature route: for circles r = const the total turning is
  int kappa_g ds = 2 pi f'(r) -> 2 pi alpha, so extrapolating
  1 - f'(r) gives the mass;

* the Gauss-Bonnet route: every surface here closes up smoothly at r = 0,
  a disc of Euler characteristic 1, so int_{B_r} K dA = 2 pi - int kappa_g ds
  and the total curvature over 2 pi has the same limit.

total_gauss_curvature integrates the closed form K = -f''/f; the tests
cross-check it with the generic Christoffel computation.  Both routes read
the profile, not the Cartesian chart (Cone2DFamily): there the tangential
eigenvalue of g is (f/r)^2 -> alpha^2 while the chart's Christoffel
symbols stay of order 1/r, so the generic curvature is a cancellation of
terms far larger than K once alpha is small.  On that chart the
Gauss-Bonnet integral of R sqrt(det g) over r <= 32 is off by 9e-6 at
alpha = 1e-4 and by 29 at alpha = 1e-6 (capped cone), where the closed
forms answer for every alpha in (0, 1].

This module holds the surfaces and their mass only; the semicontinuity
experiments on them live in sequences, next to the n-d ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import legendre_rule
from .mass import extrapolate
from .metrics import Family, GeometryError, MetricSpec, NotPositiveDefinite

__all__ = [
    "EstimatesDisagree",
    "ConicalSurface",
    "capped_cone",
    "perturbed_cone",
    "geodesic_curvature_integral",
    "total_gauss_curvature",
    "cone_mass",
    "Cone2DFamily",
    "cone_metric_spec",
    "cone_blow_up_profile",
]


class EstimatesDisagree(GeometryError):
    """Geodesic-curvature and Gauss-Bonnet mass estimates are inconsistent."""


@dataclass(frozen=True)
class ConicalSurface:
    """Surface dr^2 + f(r)^2 dtheta^2, given by the jet of its profile: a
    callable (r, order) -> [f, f', f''][:order + 1] that writes each
    derivative once.  f, df and d2f read one entry of it.

    alpha is the asymptotic opening f(r)/r -> alpha; the surface closes up
    smoothly at r = 0 (f(0) = 0, f'(0) = 1), a disc of Euler characteristic 1."""

    jet: callable
    alpha: float
    transition_radius: float = 1.0
    name: str = "cone"

    def f(self, r):
        return self.jet(r, 0)[0]

    def df(self, r):
        return self.jet(r, 1)[1]

    def d2f(self, r):
        return self.jet(r, 2)[2]


def capped_cone(alpha):
    """Cone of opening alpha smoothed to a C^2 cap inside r < 1.

    f(r) = r (alpha + (1 - alpha)(1 - r^2)^3) for r < 1, alpha r outside:
    f'(0) = 1 (smooth pole), and f, f', f'' match at r = 1."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("opening must lie in (0, 1]")
    b = 1.0 - alpha

    def jet(r, order):
        r = np.asarray(r, dtype=float)
        w = np.clip(1.0 - r ** 2, 0.0, None)
        ratio = alpha + b * w ** 3
        out = [r * ratio]
        if order >= 1:
            out.append(ratio - 6.0 * b * r ** 2 * w ** 2)
        if order == 2:
            out.append(-18.0 * b * r * w ** 2 + 24.0 * b * r ** 3 * w)
        return out

    return ConicalSurface(jet, alpha, transition_radius=1.0, name="capped_cone")


def perturbed_cone(alpha, amplitude=0.1, tau=1.0):
    """Capped cone with a decaying radial perturbation of the circumference.

    f gains amplitude * r^{-tau} * z(r) with a C^2 cutoff z supported in
    r > 1, so the opening (and the mass) is unchanged while the approach to
    the exact cone is O(r^{-tau}); tau must be positive."""
    if not tau > 0.0:
        raise ValueError(f"perturbation decay tau must be positive, got {tau}")
    base = capped_cone(alpha)

    # a huge amplitude overflows f, f' and f'' to inf or NaN, whatever the
    # warnings filter: total_gauss_curvature and cone_mass's comparison of
    # its two routes then raise
    @np.errstate(over="ignore", invalid="ignore")
    def jet(r, order):
        r = np.asarray(r, dtype=float)
        capped = base.jet(r, order)
        # cutoff z(r) = (1 - 1/r^2)^3 for r > 1: C^2 at r = 1, -> 1 at infinity
        w = np.clip(1.0 - r ** -2.0, 0.0, None)
        z = w ** 3
        out = [capped[0] + amplitude * r ** -tau * z]
        if order >= 1:
            dz = 6.0 * w ** 2 * r ** -3.0 * (r > 1.0)
            out.append(capped[1] - amplitude * tau * r ** (-tau - 1.0) * z
                       + amplitude * r ** -tau * dz)
        if order == 2:
            d2z = (24.0 * w * r ** -6.0 - 18.0 * w ** 2 * r ** -4.0) * (r > 1.0)
            out.append(capped[2]
                       + amplitude * tau * (tau + 1.0) * r ** (-tau - 2.0) * z
                       - 2.0 * amplitude * tau * r ** (-tau - 1.0) * dz
                       + amplitude * r ** -tau * d2z)
        return out

    return ConicalSurface(jet, alpha, transition_radius=1.0, name="perturbed_cone")


def geodesic_curvature_integral(surface, r):
    """Total turning int_{r=const} kappa_g ds = 2 pi f'(r), in closed form.

    kappa_g = f'/f and ds = f dtheta are constant on the circle, so no
    quadrature is involved; cone_mass's consistency check therefore compares
    this closed form with the Gauss-Bonnet quadrature of the curvature."""
    return 2.0 * math.pi * float(surface.df(np.array([float(r)]))[0])


def total_gauss_curvature(surface, r):
    """int_{B_r} K dA = 2 pi (f'(0) - f'(r)) for a capped profile, K = -f''/f.

    Evaluated by panel-wise 128-node Gauss quadrature of K f dr (the closed
    form 2 pi (1 - f'(r)) is the oracle in the tests, not used here).  The
    128-node rule is legendre_rule's, built once per process and shared by
    every panel and call.  Raises NotPositiveDefinite where f <= 0 at a
    node: the profile is then no surface of revolution."""
    r = float(r)
    edges = [0.0]
    t = surface.transition_radius
    # the cap boundary is always a panel edge (f is only piecewise smooth
    # there); past it, geometric panels resolve slowly decaying tails
    while t < r:
        edges.append(t)
        t *= 2.0
    edges.append(r)
    xg, wg = legendre_rule(128)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = 0.5 * (hi - lo) * (xg + 1.0) + lo
        w = 0.5 * (hi - lo) * wg
        f, _, d2f = surface.jet(s, 2)
        if np.any(f <= 0.0):
            raise NotPositiveDefinite(
                f"{surface.name}: f <= 0 at r = {s[f <= 0.0][:3]}"
            )
        K = -d2f / f
        total += float(np.dot(w, K * f))
    return 2.0 * math.pi * total


def cone_mass(surface, radii=(4.0, 8.0, 16.0, 32.0)):
    """Angle-defect mass 1 - alpha, extrapolated from finite radii.

    Computes both the turning-angle route and the Gauss-Bonnet route at
    every radius, checks they agree to 1e-6 (a NaN on either route fails
    the check), and extrapolates 1 - f'(r) with a c0 + c1 r^{-p} model
    (p = 2 covers both the cap and the default perturbation)."""
    radii = tuple(float(r) for r in radii)
    turning = []
    for r in radii:
        t = 1.0 - geodesic_curvature_integral(surface, r) / (2.0 * math.pi)
        # int K = 2 pi - int kappa_g on the capped disc, so total / 2 pi
        # has the same r -> infinity limit as 1 - f'(r)
        gb = total_gauss_curvature(surface, r) / (2.0 * math.pi)
        if not abs(t - gb) <= 1e-6:
            raise EstimatesDisagree(
                "turning-angle and curvature-integral estimates differ by"
                f" {abs(t - gb):.3e} at r = {r:g}"
            )
        turning.append(t)
    return extrapolate(radii, turning, 2.0)


def cone_blow_up_profile(surface, i):
    """Rescaled profile f_i(r) = i f(r / i): same opening, cap shrunk away.

    As i -> 0 the surface converges locally (away from the tip) to the exact
    cone; as i -> infinity it flattens toward the plane when f'(0) = 1."""

    def jet(r, order):
        out = surface.jet(np.asarray(r, dtype=float) / i, order)
        out[0] = i * out[0]
        if order == 2:
            out[2] = out[2] / i
        return out

    return ConicalSurface(
        jet, surface.alpha, transition_radius=i * surface.transition_radius,
        name=f"{surface.name}@{i}",
    )


class Cone2DFamily(Family):
    """Cartesian-chart wrapper of a conical surface (for window machinery).

    In coordinates x = (r cos theta, r sin theta) the metric
    dr^2 + f(r)^2 dtheta^2 is g = I + s(r) T with T = r^2 I - x x^T, the
    tangential projector times r^2, and s = (f^2 - r^2) / r^4.  The jet
    raises NotPositiveDefinite where f <= 0: the profile is then no surface
    of revolution.  The cap edge is the one radial breakpoint."""

    name = "Cone2D"
    excludes_origin = True
    symmetry = True

    def __init__(self, surface):
        self.surface = surface
        self.n = 2
        self.radial_breakpoints = (surface.transition_radius,)

    def jet(self, x, order):
        """[g, dg, d2g][:order + 1] from one jet [f, f', f''] at r = |x|, by the
        product rule on s(r) T(x): d_k s = s' x_k / r and
        d_k d_l s = s'' x_k x_l / r^2 + s' (delta_kl / r - x_k x_l / r^3),
        d_k T_ij = 2 x_k delta_ij - delta_ik x_j - x_i delta_jk and
        d_k d_l T_ij = 2 delta_kl delta_ij - delta_ik delta_jl - delta_il delta_jk."""
        r = np.linalg.norm(x, axis=1)
        profile = self.surface.jet(r, order)
        f = profile[0]
        if np.any(f <= 0.0):
            raise NotPositiveDefinite(
                f"{self.name}: f <= 0 at r = {r[f <= 0.0][:3]}"
            )
        eye = np.eye(2)
        xx = np.einsum("ni,nj->nij", x, x)
        T = (r * r)[:, None, None] * eye - xx
        s = (f * f - r * r) / r ** 4
        jet = [eye + s[:, None, None] * T]
        if order == 0:
            return jet
        df = profile[1]
        # s1 = s'(r) and, below, s2 = s''(r)
        s1 = 2.0 * f * df / r ** 4 - 4.0 * f * f / r ** 5 + 2.0 / r ** 3
        ds = (s1 / r)[:, None] * x
        dT = (2.0 * np.einsum("nk,ij->nkij", x, eye)
              - np.einsum("ik,nj->nkij", eye, x)
              - np.einsum("ni,jk->nkij", x, eye))
        jet.append(np.einsum("nk,nij->nkij", ds, T) + s[:, None, None, None] * dT)
        if order == 1:
            return jet
        d2f = profile[2]
        s2 = (2.0 * (df * df + f * d2f) / r ** 4 - 16.0 * f * df / r ** 5
              + 20.0 * f * f / r ** 6 - 6.0 / r ** 4)
        d2s = ((s2 - s1 / r) / r ** 2)[:, None, None] * xx + (s1 / r)[:, None, None] * eye
        d2T = (2.0 * np.einsum("kl,ij->klij", eye, eye)
               - np.einsum("ik,jl->klij", eye, eye)
               - np.einsum("il,jk->klij", eye, eye))
        cross = np.einsum("nk,nlij->nklij", ds, dT)
        jet.append(
            np.einsum("nkl,nij->nklij", d2s, T) + cross + cross.transpose(0, 2, 1, 3, 4)
            + s[:, None, None, None, None] * d2T
        )
        return jet


def cone_metric_spec(surface, **kw):
    return MetricSpec(Cone2DFamily(surface), **kw)
