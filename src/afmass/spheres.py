"""Geometry of coordinate spheres S_r = {|x| = r}.

Every generic quantity is computed pointwise at x = r u from the metric g
and its coordinate derivatives dg, d2g at x alone; nothing is differenced
along the sphere, and the chart poles are ordinary points.  With N = d|x| (components x_j / r),
lambda = |N|_g and nu = g^{-1} N / lambda the outward unit normal:

* area: the coarea formula gives dA_g = sqrt(det g) lambda dA_flat;
* mean curvature: the second fundamental form of the level set is
  A = Hess_g(|x|) / lambda restricted to the tangent space, and H = tr A;
* intrinsic scalar curvature: the Gauss equation
  rho = R - 2 Ric(nu, nu) + H^2 - |A|^2.

_geometry_at, the one pointwise route, evaluates these generically (H > 0 on
flat round spheres).  sphere_area and sphere_report use the closed conformal
formulas whenever the family has a radial profile U (g = U^{4/(n-2)} delta, U
constant on each sphere); the formulas are also the test suite's oracle for
the generic route.  Otherwise they evaluate the generic route at the nodes the
family's symmetry needs (_symmetry): one node for a rotationally symmetric
family, one meridian of q nodes about the family's axis in analytic mode, else
the full angular grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curvature import _christoffels, _ricci_from_inverse
from .geometry import sample_spheres, unit_sphere_area
from .metrics import GeometryError, metric_jet

__all__ = [
    "DegenerateNormal",
    "SphereReport",
    "sphere_area",
    "sphere_report",
    "conformal_mean_curvature",
    "conformal_sphere_scalar_curvature",
    "conformal_sphere_area",
]

class DegenerateNormal(GeometryError):
    pass


@dataclass(frozen=True)
class SphereReport:
    """Area, mean-curvature and induced-scalar-curvature extrema of S_r;
    closed_form is the (U(r), U'(r)) the closed conformal forms were
    evaluated at, or None for the generic route."""

    r: float
    area: float
    H_min: float
    H_max: float
    maxH2: float
    rho_min: float
    rho_max: float
    q: int
    closed_form: tuple = None


# ---------------------------------------------------------------------------
# closed conformal formulas (radial U, constant on each sphere)


def conformal_sphere_area(n, r, u_value):
    return u_value ** (2.0 * (n - 1) / (n - 2)) * unit_sphere_area(n) * r ** (n - 1)


def conformal_mean_curvature(n, r, u_value, du_value):
    """H = U^{-2/(n-2)} (n-1)/r + (2(n-1)/(n-2)) U^{-n/(n-2)} nu(U)."""
    return (
        u_value ** (-2.0 / (n - 2)) * (n - 1) / r
        + 2.0 * (n - 1) / (n - 2) * u_value ** (-n / (n - 2.0)) * du_value
    )


def conformal_sphere_scalar_curvature(n, r, u_value):
    """Induced scalar curvature of S_r when the conformal factor is constant
    on the sphere: plain rescaling of (n-1)(n-2)/r^2."""
    return u_value ** (-4.0 / (n - 2)) * (n - 1) * (n - 2) / r ** 2


def _symmetry(spec):
    """The `symmetry` of geometry.sample_spheres for an integral or node
    extremum of a scalar invariant of spec (the flux density V.x/r, the area
    density, H, rho, div V, R sqrt(det g)): the family's symmetry, except
    that an fd spec with an axis takes the full grid.  Finite-difference
    stencils lie along the coordinate axes, so in fd mode the invariant is
    evaluated with an error that varies around the axis: fd specs keep the
    grid (whose q^{n-1} nodes the benchmark's fd jobs count)."""
    symmetry = spec.family.symmetry
    if symmetry is not True and spec.derivative_mode == "fd":
        return False
    return symmetry


def _closed_form(spec, r):
    """(U(r), U'(r)) when the closed conformal formulas apply, else None.

    Raises OverflowError, before U is evaluated, where the flat area factor
    r^{n-1} or its inverse does not fit a float (the formulas scale with
    r^{n-1} and with powers of 1/r), whatever the warnings filter."""
    profile = spec.family.radial_profile
    if profile is None or spec.n < 3:
        return None
    # in Python floats the power reaches 0 or inf without a numpy warning
    power = math.prod([float(r)] * (spec.n - 1))
    if not (0.0 < power < math.inf and 1.0 / power < math.inf):
        raise OverflowError(
            f"sphere r = {r:g}: r^{spec.n - 1} = {power:g} leaves the float range")
    rr = np.array([float(r)])
    u, du = profile.positive_jet(rr, 1)
    return float(u[0]), float(du[0])


# ---------------------------------------------------------------------------
# generic route


def _checked_normal(lam2):
    """lam^2 = |d|x||_g^2, or DegenerateNormal where it is not positive."""
    if np.any(lam2 <= 0.0):
        raise DegenerateNormal("gradient of |x| is g-null")
    return lam2


def _geometry_at(spec, r, x, order):
    """Pointwise geometry of S_r at the points x (N, n) on it: (density, H, rho).

    density = sqrt(det g) |d|x||_g is the ratio of the g-area element of S_r
    to the flat one.  The metric is differentiated up to `order`: H needs
    order >= 1 and rho order 2; each is None below that.
    """
    u = x / r  # the covector d|x|
    N, n = x.shape
    jet = metric_jet(spec, x, order)
    g = jet[0]
    if order == 0:
        # one Cholesky factor g = L L^T: sqrt(det g) = prod diag L, and
        # lam^2 = u g^{-1} u = |y|^2 with L y = u, by forward substitution
        L = np.linalg.cholesky(g)
        diag = np.diagonal(L, axis1=1, axis2=2)
        y = np.empty_like(u)
        for i in range(n):
            y[:, i] = (u[:, i] - np.einsum("nk,nk->n", L[:, i, :i], y[:, :i])) / diag[:, i]
        lam = np.sqrt(_checked_normal(np.einsum("ni,ni->n", y, y)))
        return np.prod(diag, axis=1) * lam, None, None
    ginv = np.linalg.inv(g)
    normal = np.einsum("nij,nj->ni", ginv, u)
    lam = np.sqrt(_checked_normal(np.einsum("ni,ni->n", normal, u)))
    density = np.sqrt(np.linalg.det(g)) * lam
    dg = jet[1]
    nu = normal / lam[:, None]
    # inverse induced metric, as a tensor on the ambient space
    tangent = ginv - np.einsum("ni,nj->nij", nu, nu)
    low, gamma = _christoffels(ginv, dg)
    # Hess_g |x| = d d|x| - Gamma^k d_k|x|
    hess = (
        (np.eye(n)[None] - np.einsum("ni,nj->nij", u, u)) / r
        - np.einsum("nkij,nk->nij", gamma, u)
    )
    A = hess / lam[:, None, None]
    H = np.einsum("nij,nij->n", tangent, A)
    if order == 1:
        return density, H, None
    if n == 2:
        # a curve carries no intrinsic curvature
        return density, H, np.zeros(N)
    shape = np.einsum("nij,njk->nik", tangent, A)  # A with one index raised
    A2 = np.einsum("nij,nji->n", shape, shape)
    ric = _ricci_from_inverse(ginv, dg, jet[2], low, gamma)
    R = np.einsum("nij,nij->n", ginv, ric)
    rho = R - 2.0 * np.einsum("nij,ni,nj->n", ric, nu, nu) + H * H - A2
    return density, H, rho


def sphere_area(spec, r, q=32):
    """Area of S_r: the closed conformal form for a radial profile, else
    angular quadrature of the coarea density."""
    n = spec.n
    closed = _closed_form(spec, r)
    if closed is not None:
        return conformal_sphere_area(n, r, closed[0])
    return sum(
        float(np.dot(w, _geometry_at(spec, r, x, 0)[0]))
        for x, w in sample_spheres(n, q, [r], _symmetry(spec), n * n)
    )


def sphere_report(spec, r, q=32):
    """Area plus node extrema of H and the induced scalar curvature: the
    closed conformal forms for a radial profile, else the node geometry."""
    n = spec.n
    closed = _closed_form(spec, r)
    if closed is not None:
        area = conformal_sphere_area(n, r, closed[0])
        H = conformal_mean_curvature(n, r, *closed)
        rho = conformal_sphere_scalar_curvature(n, r, closed[0])
        return SphereReport(
            r=float(r), area=area, H_min=H, H_max=H, maxH2=H * H,
            rho_min=rho, rho_max=rho, q=q, closed_form=closed,
        )
    area = 0.0
    H_min = math.inf
    H_max = -math.inf
    maxH2 = 0.0
    rho_min = math.inf
    rho_max = -math.inf
    for x, w in sample_spheres(n, q, [r], _symmetry(spec), n ** 4):
        density, H, rho = _geometry_at(spec, r, x, 2)
        area += float(np.dot(w, density))
        H_min = min(H_min, float(H.min()))
        H_max = max(H_max, float(H.max()))
        maxH2 = max(maxH2, float((H * H).max()))
        rho_min = min(rho_min, float(rho.min()))
        rho_max = max(rho_max, float(rho.max()))
    return SphereReport(
        r=float(r), area=area, H_min=H_min, H_max=H_max, maxH2=maxH2,
        rho_min=rho_min, rho_max=rho_max, q=q,
    )
