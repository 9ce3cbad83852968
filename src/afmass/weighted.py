"""Weighted decay norms, the divergence form of the mass, and matter defects.

The divergence quantity

    D(g) = div V = sum_{i,j} d_i d_j g_ij - sum_{i,j} d_j d_j g_ii,

is the divergence of the mass vector V_j = d_i g_ij - d_j g_ii, whose flux
is the mass (metrics.mass_vector).  It integrates against the flat volume
element to reproduce the flux form of the mass: by the divergence theorem,

    flux(R) = flux(r0) + c_n int_{r0 < |x| < R} D(g) dx,

so volume quadrature of D plus one inner flux evaluation gives an
independent route to the total mass.  D - R decays two orders faster than
either term, which is what makes the comparison between this route and the
scalar-curvature integral meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curvature import scalar_curvature
from .geometry import legendre_rule, sample_spheres
from .mass import _decay_exponent, adm_flux, adm_mass, extrapolate, flux_constant
from .metrics import mass_vector, metric_jet
from .spheres import _symmetry

__all__ = [
    "WeightedNormParams",
    "DefectReport",
    "weighted_seminorm",
    "d_operator_at",
    "mass_via_divergence",
    "matter_integral",
    "mass_matter_defect",
]


@dataclass(frozen=True)
class WeightedNormParams:
    """Sampling grid for weighted C^k seminorms.

    The seminorm of order k with weight tau is the max over sample points,
    over all derivative multi-indices |gamma| <= k, of

        |x|^{|gamma| + tau} |d^gamma f(x)|.
    """

    tau: float
    k: int = 2
    r_min: float = 1.0
    r_max: float = 1000.0
    radii_per_decade: int = 64
    angular_q: int = 8

    def radii(self):
        decades = math.log10(self.r_max / self.r_min)
        count = max(2, int(round(decades * self.radii_per_decade)) + 1)
        return np.geomspace(self.r_min, self.r_max, count)


def weighted_seminorm(spec, params, reference=None):
    """Weighted seminorm of g - delta (or of g - reference metric).

    Derivative orders up to params.k (at most 2) enter with weight
    |x|^{order + tau}.  Returns the max over the sample grid."""
    n = spec.n
    if params.k > 2:
        raise ValueError("derivative order at most 2 is supported")
    # the largest tensor component is no invariant of a rotation about an
    # axis, so a family with an axis still takes the full grid here
    symmetric = spec.family.symmetry is True and (
        reference is None or reference.family.symmetry is True
    )
    worst = 0.0
    for x, _ in sample_spheres(
        n, max(2, params.angular_q), params.radii(), symmetric,
        n ** (2 + params.k),
    ):
        r = np.linalg.norm(x, axis=1)
        jet = metric_jet(spec, x, params.k)
        if reference is None:
            jet[0] = jet[0] - np.eye(n)[None]
        else:
            jet = [d - e for d, e in zip(jet, metric_jet(reference, x, params.k))]
        for order, d in enumerate(jet):
            worst = max(worst, _weighted_max(r ** (params.tau + order), d))
    return worst


def _weighted_max(weight, values):
    """max over points p of weight[p] * max |values[p]|."""
    return float((weight * np.abs(values).reshape(len(weight), -1).max(axis=1)).max())


def d_operator_at(spec, x):
    """D(g) = div V = d_i d_j g_ij - d_j d_j g_ii at x (batched)."""
    out = mass_vector(spec, x, order=2)[1]
    return float(out) if np.ndim(x) == 1 else out


def _volume_quadrature(spec, fn, edges, q, radial_q=64):
    """The cumulative integrals int_{edges[0] < |x| < e} fn dx at every later
    edge e, an array of len(edges) - 1 values (edges increasing).

    One sample_spheres pass covers every radial panel: [edges[0], edges[-1]]
    split at the edges and at the family's radial_breakpoints, each panel
    with a radial_q-point Gauss-Legendre rule.  The nodes come in radius
    order; fn is evaluated a panel at a time (|x| picks the panel), so its
    arrays are no larger than one panel's, and the panel sums are added up
    to each edge."""
    edges = np.asarray(edges, dtype=float)
    inside = [b for b in spec.family.radial_breakpoints if edges[0] < b < edges[-1]]
    # sorted, not np.unique: the first np.unique call of a process raises its
    # peak RSS by about 1 MB (numpy 2.4)
    cuts = np.array(sorted({*edges, *inside}))
    xg, wg = legendre_rule(radial_q)
    half = 0.5 * np.diff(cuts)[:, None]
    sums = np.zeros(len(cuts) - 1)
    for x, w in sample_spheres(
        spec.n, q, (half * (xg + 1.0) + cuts[:-1, None]).ravel(), _symmetry(spec),
        spec.n ** 4, radial_weights=(half * wg).ravel(),
    ):
        panel = np.searchsorted(cuts, np.linalg.norm(x, axis=1)) - 1
        bounds = [0, *(np.flatnonzero(np.diff(panel)) + 1), len(panel)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sums[panel[lo]] += np.dot(w[lo:hi], fn(spec, x[lo:hi]))
    return np.cumsum(np.concatenate([[0.0], sums]))[np.searchsorted(cuts, edges[1:])]


def mass_via_divergence(spec, inner=None, outer=None, q=16, radial_q=64):
    """Total mass through the divergence form of the flux integral.

    Evaluates flux(inner) + c_n * int D(g) over annuli out to R for
    R in {outer/4, outer/2, outer}, then extrapolates in R exactly as the
    flux route does.  The default outer puts outer/4 past twice the
    family's support radius."""
    n = spec.n
    if inner is None:
        inner = max(2.0, 2.0 * spec.family.inner_radius + 1.0)
    if outer is None:
        outer = max(64.0 * inner, 8.0 * spec.family.support_radius())
    radii = [outer / 4.0, outer / 2.0, outer]
    if radii[0] <= inner:
        raise ValueError("need outer > 4 * inner")
    base = adm_flux(spec, inner, q=max(q, 16))
    volume = _volume_quadrature(spec, d_operator_at, [inner, *radii], q, radial_q)
    return extrapolate(radii, base + flux_constant(n) * volume, _decay_exponent(spec))


def _scalar_density(spec, pts):
    g, dg, d2g = metric_jet(spec, pts)
    # det g of a huge but finite metric overflows: the non-finite integral
    # then fails the fit, whatever the warnings filter
    with np.errstate(over="ignore", invalid="ignore"):
        return scalar_curvature(g, dg, d2g) * np.sqrt(np.linalg.det(g))


def matter_integral(spec, inner, outer, q=16, radial_q=96):
    """c_n * int R dV_g over the annulus inner < |x| < outer."""
    return flux_constant(spec.n) * float(_volume_quadrature(
        spec, _scalar_density, [inner, outer], q, radial_q
    )[-1])


@dataclass(frozen=True)
class DefectReport:
    mass: float
    matter: float

    @property
    def defect(self):
        return self.mass - self.matter


def mass_matter_defect(spec, inner=None, outer=None, q=16):
    """Mass minus the scalar-curvature integral (truncated at outer).

    For scalar-flat metrics the matter term vanishes and the defect is the
    mass itself; for matter concentrated in a compact shell the integral is
    effectively complete once outer clears the support.  The default outer
    is twice the family's support radius, and at least 64.  The mass is the
    family's exact mass when known, else the flux extrapolation."""
    n = spec.n
    if inner is None:
        inner = max(spec.family.inner_radius, 0.0)
        if inner == 0.0 and spec.family.excludes_origin:
            inner = 1e-8
    if outer is None:
        outer = max(64.0, 2.0 * spec.family.support_radius())
    mass = spec.family.mass_hint
    if mass is None:
        mass = adm_mass(spec, q=max(q, 16)).value
    matter = matter_integral(spec, inner, outer, q=q)
    return DefectReport(mass=float(mass), matter=matter)
