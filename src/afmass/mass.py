"""Total-mass functionals of asymptotically flat metrics.

The principal quantity is the flux integral over large coordinate spheres

    m(r) = c_n int_{S_r} sum_{i,j} (d_i g_ij - d_j g_ii) x^j / r  dA_flat,

with c_n = 1 / (2 (n-1) omega_{n-1}); its r -> infinity limit is the total
mass.  Raw flux values at several radii are extrapolated by fitting
c0 + c1 r^{-p}, where p reflects the decay rate of the metric family.

A second functional compares the area of a sphere with its mean and scalar
curvature extrema,

    fg(S) = 0.5 (|S| / omega_{n-1})^{(n-2)/(n-1)}
                (1 - ((n-2)/(n-1)) max H^2 / min rho),

defined whenever the induced scalar curvature is positive; on centered
coordinate spheres of a Schwarzschild metric it equals the mass exactly,
and for small metric perturbations it converges to the mass as r grows.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import sample_spheres, unit_sphere_area
from .metrics import GeometryError, mass_vector
from .spheres import _symmetry, sphere_report

__all__ = [
    "FitIllConditioned",
    "ZeroRhoMin",
    "MassEstimate",
    "flux_constant",
    "fit_inverse_power",
    "extrapolate",
    "adm_flux",
    "adm_mass",
    "default_mass_radii",
    "fg",
    "fg_detail",
    "fg_limit",
    "penrose_like_check",
]


class FitIllConditioned(GeometryError):
    """Radial extrapolation has too few or too close sample radii."""


class ZeroRhoMin(GeometryError):
    """fg undefined: the minimal induced scalar curvature is not positive."""


def flux_constant(n):
    """Normalization 1 / (2 (n-1) omega_{n-1}) of the mass flux integral."""
    return 1.0 / (2.0 * (n - 1) * unit_sphere_area(n))


@dataclass(frozen=True)
class MassEstimate:
    """Extrapolated mass with the raw flux samples behind it."""

    value: float
    error: float
    radii: tuple = ()
    raw: tuple = ()
    model: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "value": self.value,
            "error": self.error,
            "radii": list(self.radii),
            "raw": list(self.raw),
            "model": dict(self.model),
        }


def fit_inverse_power(radii, values, p):
    """Least-squares fit of values ~ c0 + c1 r^{-p}; returns (c0, c1, rms).

    With a single sample the value itself is returned (c1 = 0)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.size == 0:
        raise FitIllConditioned("no sample radii")
    if radii.size == 1:
        return float(values[0]), 0.0, 0.0
    A = np.stack([np.ones_like(radii), radii ** (-p)], axis=1)
    if np.linalg.matrix_rank(A) < 2:
        raise FitIllConditioned("sample radii do not separate the fit basis")
    coef, *_ = np.linalg.lstsq(A, values, rcond=None)
    # residuals near 1e200 overflow when squared: the rms is then inf,
    # which extrapolate rejects, under any warnings filter
    with np.errstate(over="ignore", invalid="ignore"):
        resid = A @ coef - values
        rms = float(np.sqrt(np.mean(resid ** 2)))
    return float(coef[0]), float(coef[1]), rms


def extrapolate(radii, raw, p):
    """MassEstimate of the r -> infinity limit of raw samples at the radii.

    Fits c0 + c1 r^{-p}; the error is |raw[-1] - c0| plus the fit residual.
    Raises FitIllConditioned when finite samples give a fit that is not
    finite (the residual of samples near 1e200 overflows when squared)."""
    radii = tuple(float(r) for r in radii)
    raw = tuple(float(v) for v in raw)
    c0, c1, rms = fit_inverse_power(radii, raw, p)
    error = abs(raw[-1] - c0) + rms
    if all(map(math.isfinite, raw)) and not all(
            map(math.isfinite, (c0, c1, error))):
        raise FitIllConditioned(
            f"the fit of finite samples overflows: c0 = {c0}, c1 = {c1},"
            f" error = {error}"
        )
    return MassEstimate(
        value=c0, error=error, radii=radii, raw=raw,
        model={"c0": c0, "c1": c1, "p": float(p)},
    )


def adm_flux(spec, r, q=32):
    """Raw mass flux through S_r (no extrapolation): c_n times the flat
    integral of the mass vector V (metrics.mass_vector) against x / r."""
    n = spec.n
    # block sizes bound the dense jet of the fallback routes: a family
    # without a closed mass vector traces dg (n^3 entries per node), and
    # fd mode's stencil also builds d2g (n^4)
    entries = n ** 4 if spec.derivative_mode == "fd" else n ** 3
    total = 0.0
    for x, w in sample_spheres(n, q, [r], _symmetry(spec), entries):
        V = mass_vector(spec, x)[0]
        total += float(np.dot(w, np.einsum("nj,nj->n", V, x / r)))
    return flux_constant(n) * total


def default_mass_radii(base_radius):
    """Geometric ladder base, 2*base, 4*base, 8*base used for extrapolation."""
    return tuple(base_radius * 2.0 ** k for k in range(4))


def _decay_exponent(spec):
    return max(min(spec.n - 2, spec.family.flux_decay_order), 1)


def adm_mass(spec, radii=None, q=32):
    """Total mass: flux at several radii, extrapolated to r = infinity.

    The default ladder starts at or past twice the family's support radius
    (its radial breakpoints and inner radius, moved by a translation)."""
    if radii is None:
        radii = default_mass_radii(max(
            50.0 * 2.0 ** max(0, 5 - spec.n), 2.0 * spec.family.support_radius()
        ))
    return extrapolate(radii, [adm_flux(spec, r, q=q) for r in radii],
                       _decay_exponent(spec))


def fg(spec, r, q=32):
    """Quasi-local mass-type quantity of the coordinate sphere S_r."""
    return fg_detail(spec, r, q=q)["fg"]


def fg_detail(spec, r, q=32, report=None):
    """fg(S_r) together with the sphere data entering it.

    Raises ZeroRhoMin when the minimal induced scalar curvature is <= 0;
    that happens only outside the regime where the functional is meaningful.
    A given report stands in for sphere_report(spec, r, q); the bracket
    takes its closed conformal form (U, U'), so the profile is evaluated
    once per sphere.
    """
    n = spec.n
    if n < 3:
        raise GeometryError("fg needs ambient dimension >= 3")
    if report is None:
        report = sphere_report(spec, r, q=q)
    if report.rho_min <= 0.0:
        raise ZeroRhoMin(f"min induced scalar curvature {report.rho_min} <= 0 at r={r}")
    ratio = (n - 2.0) / (n - 1.0)
    bracket = _bracket(n, report)
    value = 0.5 * (report.area / unit_sphere_area(n)) ** ratio * bracket
    return {
        "fg": value,
        "bracket": bracket,
        "r": float(r),
        "area": report.area,
        "maxH2": report.maxH2,
        "rho_min": report.rho_min,
        "rho_max": report.rho_max,
        "H_min": report.H_min,
        "H_max": report.H_max,
        "q": report.q,
    }


def _bracket(n, report):
    """The factor 1 - ((n-2)/(n-1)) maxH2 / rho_min of fg(S_r), for
    rho_min > 0; it is positive exactly when the hypothesis
    rho_min > ((n-2)/(n-1)) maxH2 of the inequality fg <= m holds.  A
    report of the closed conformal forms lends it their (U, U')."""
    closed = report.closed_form
    if closed is not None:
        # closed conformal forms give maxH2/rho_min = (1 + s)^2 with
        # s = 2 r U'/((n-2) U); expanding 1 - (1+s)^2 avoids the large-r
        # cancellation that otherwise grows like eps * r^{n-2}, and a
        # sphere in a flat cavity (U' = 0) gets exactly 0
        u, du = closed
        s = 2.0 * report.r * du / ((n - 2.0) * u)
        return -s * (2.0 + s)
    return 1.0 - (n - 2.0) / (n - 1.0) * report.maxH2 / report.rho_min


def fg_limit(spec, radii, q=32):
    """Extrapolate fg(S_r) to r = infinity with a c0 + c1/r model."""
    return extrapolate(radii, [fg(spec, r, q=q) for r in radii], 1.0)


def penrose_like_check(spec, r, q=32):
    """Check rho_min > ratio * maxH2 and, when it holds, fg(S_r) <= mass.

    The hypothesis is decided as rho_min > 0 and a positive fg bracket,
    computed as fg_detail computes it, so that an exact tie (a sphere in a
    flat cavity) reads false in every dimension rather than by rounding.
    The mass is the family's exact mass when known, else the flux
    extrapolation.  Returns a record of every quantity involved.
    """
    n = spec.n
    report = sphere_report(spec, r, q=q)
    ratio = (n - 2.0) / (n - 1.0)
    hypothesis = report.rho_min > 0.0 and _bracket(n, report) > 0.0
    mass = spec.family.mass_hint
    if mass is None:
        mass = adm_mass(spec, q=q).value
    record = {
        "r": float(r),
        "hypothesis_holds": bool(hypothesis),
        "rho_min": report.rho_min,
        "maxH2": report.maxH2,
        "ratio": ratio,
        "mass": float(mass),
        "fg": None,
        "inequality_holds": None,
    }
    if hypothesis:
        value = fg_detail(spec, r, q=q, report=report)["fg"]
        record["fg"] = value
        record["inequality_holds"] = bool(value <= mass + 1e-12 * max(1.0, abs(mass)))
    return record
