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
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import legendre_rule
from .mass import extrapolate
from .metrics import Family, GeometryError, MetricSpec, NotPositiveDefinite
from .sequences import _experiment_report

__all__ = [
    "EstimatesDisagree",
    "ConicalSurface",
    "capped_cone",
    "perturbed_cone",
    "geodesic_curvature_integral",
    "total_gauss_curvature",
    "cone_mass",
    "cone_semicontinuity_experiment",
    "CONE_EXPERIMENT_KINDS",
    "Cone2DFamily",
    "cone_metric_spec",
    "cone_blow_up_profile",
]


class EstimatesDisagree(GeometryError):
    """Geodesic-curvature and Gauss-Bonnet mass estimates are inconsistent."""


@dataclass(frozen=True)
class ConicalSurface:
    """Surface dr^2 + f(r)^2 dtheta^2 with analytic f, f', f''.

    alpha is the asymptotic opening f(r)/r -> alpha; the surface closes up
    smoothly at r = 0 (f(0) = 0, f'(0) = 1), a disc of Euler characteristic 1."""

    f: callable
    df: callable
    d2f: callable
    alpha: float
    transition_radius: float = 1.0
    name: str = "cone"


def capped_cone(alpha):
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

    return ConicalSurface(f=f, df=df, d2f=d2f, alpha=alpha,
                          transition_radius=1.0, name="capped_cone")


def perturbed_cone(alpha, amplitude=0.1, tau=1.0):
    """Capped cone with a decaying radial perturbation of the circumference.

    f gains amplitude * r^{-tau} * z(r) with a C^2 cutoff z supported in
    r > 1, so the opening (and the mass) is unchanged while the approach to
    the exact cone is O(r^{-tau}); tau must be positive."""
    if not tau > 0.0:
        raise ValueError(f"perturbation decay tau must be positive, got {tau}")
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

    # a huge amplitude overflows f, f' and f'' to inf or NaN, whatever the
    # warnings filter: total_gauss_curvature and cone_mass's comparison of
    # its two routes then raise
    quiet = np.errstate(over="ignore", invalid="ignore")

    @quiet
    def f(r):
        r = np.asarray(r, dtype=float)
        return base.f(r) + amplitude * r ** -tau * z(r)

    @quiet
    def df(r):
        r = np.asarray(r, dtype=float)
        return (base.df(r) - amplitude * tau * r ** (-tau - 1.0) * z(r)
                + amplitude * r ** -tau * dz(r))

    @quiet
    def d2f(r):
        r = np.asarray(r, dtype=float)
        return (base.d2f(r)
                + amplitude * tau * (tau + 1.0) * r ** (-tau - 2.0) * z(r)
                - 2.0 * amplitude * tau * r ** (-tau - 1.0) * dz(r)
                + amplitude * r ** -tau * d2z(r))

    return ConicalSurface(f=f, df=df, d2f=d2f, alpha=alpha,
                          transition_radius=1.0, name="perturbed_cone")


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
        f = surface.f(s)
        if np.any(f <= 0.0):
            raise NotPositiveDefinite(
                f"{surface.name}: f <= 0 at r = {s[f <= 0.0][:3]}"
            )
        K = -surface.d2f(s) / f
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

    def f(r):
        return i * surface.f(np.asarray(r, dtype=float) / i)

    def df(r):
        return surface.df(np.asarray(r, dtype=float) / i)

    def d2f(r):
        return surface.d2f(np.asarray(r, dtype=float) / i) / i

    return ConicalSurface(
        f=f, df=df, d2f=d2f, alpha=surface.alpha,
        transition_radius=i * surface.transition_radius,
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
        """[g, dg, d2g][:order + 1] from f, f', f'' at r = |x|, by the
        product rule on s(r) T(x): d_k s = s' x_k / r and
        d_k d_l s = s'' x_k x_l / r^2 + s' (delta_kl / r - x_k x_l / r^3),
        d_k T_ij = 2 x_k delta_ij - delta_ik x_j - x_i delta_jk and
        d_k d_l T_ij = 2 delta_kl delta_ij - delta_ik delta_jl - delta_il delta_jk."""
        r = np.linalg.norm(x, axis=1)
        f = self.surface.f(r)
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
        df = self.surface.df(r)
        # s1 = s'(r) and, below, s2 = s''(r)
        s1 = 2.0 * f * df / r ** 4 - 4.0 * f * f / r ** 5 + 2.0 / r ** 3
        ds = (s1 / r)[:, None] * x
        dT = (2.0 * np.einsum("nk,ij->nkij", x, eye)
              - np.einsum("ik,nj->nkij", eye, x)
              - np.einsum("ni,jk->nkij", x, eye))
        jet.append(np.einsum("nk,nij->nkij", ds, T) + s[:, None, None, None] * dT)
        if order == 1:
            return jet
        d2f = self.surface.d2f(r)
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

#: the annulus lo < r < hi (scaled by 4 i for escaping windows) and its
#: number of sample radii on which cone experiments measure C^2 distances
CONE_WINDOW = (0.5, 1.0)
CONE_WINDOW_SAMPLES = 64


def cone_semicontinuity_experiment(kind="blow_up", alpha=0.7,
                                   indices=(4, 8, 16, 32)):
    """Semicontinuity experiments for the cone-angle mass.

    blow_up   rescaled caps f_i(r) = i f(r/i): every member keeps mass
              1 - alpha, yet on a fixed annulus the surfaces flatten to the
              plane (limit mass 0) at C^2 rate i^{-2} -- a strict drop.
    escaping  windows of perturbed_cone(alpha) around escaping radii: the
              limit is the exact cone, same mass, drop 0, rate i^{-(tau+1)}
              with tau = 1.
    constant  the same surface at every index; distances exactly zero.
    """
    if kind not in CONE_EXPERIMENT_KINDS:
        raise ValueError(f"kind must be one of {CONE_EXPERIMENT_KINDS}")
    indices = tuple(int(i) for i in indices)
    lo, hi = CONE_WINDOW
    masses = []
    distances = []
    if kind == "blow_up":
        base = capped_cone(alpha)
        rr = np.linspace(lo, hi, CONE_WINDOW_SAMPLES)
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
        prof = perturbed_cone(alpha)
        exact = capped_cone(alpha)
        for i in indices:
            rr = np.linspace(4.0 * i * lo, 4.0 * i * hi, CONE_WINDOW_SAMPLES)
            masses.append(cone_mass(prof, radii=tuple(2.0 ** k * i for k in range(2, 6))).value)
            distances.append(_profile_c2_distance(prof, exact, rr))
        limit_mass = 1.0 - alpha
        expected = 2.0
        label = f"escaping windows on perturbed cone (alpha={alpha})"
    else:
        m = cone_mass(capped_cone(alpha)).value
        masses = [m for _ in indices]
        distances = [0.0 for _ in indices]
        limit_mass = m
        expected = math.inf
        label = f"constant cone sequence (alpha={alpha})"
    return _experiment_report(
        label, f"cone_{kind}", indices, masses, limit_mass, distances,
        expected, {"alpha": alpha, "window": list(CONE_WINDOW)},
    )
