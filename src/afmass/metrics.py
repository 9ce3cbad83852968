"""Asymptotically flat metrics in a single coordinate chart.

Each metric family evaluates the matrix g_ij(x) and, where closed forms
exist, its first and second coordinate derivatives, batched over points.
Specs are immutable; evaluation is pure.

Conformally flat metrics g = U^{4/(n-2)} delta are the workhorse, all of
them one ConformalFamily: the Schwarzschild metric uses U = 1 + m/(2 r^{n-2}),
harmonically flat metrics use a harmonic U -> 1, and the matter-shell
sequence supplies U = 1 + v_i from a solved radial potential.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import (
    fd_metric_derivatives,
    ricci_tensor,
    scalar_curvature,
    christoffel,
)

EPS = np.finfo(float).eps

__all__ = [
    "GeometryError",
    "SingularPoint",
    "NotPositiveDefinite",
    "StepTooLarge",
    "NonPositiveConformalFactor",
    "MetricSpec",
    "PointwiseCurvature",
    "RadialProfile",
    "ScalarField",
    "RadialField",
    "ConformalFamily",
    "harmonic_dipole_field",
    "scalar_curvature_at",
    "euclidean",
    "schwarzschild",
    "harmonically_flat",
    "conformally_flat",
    "asymptotically_schwarzschild",
    "scaled",
    "translated",
    "metric_at",
    "metric_derivatives_at",
    "curvature_at",
    "metric_to_json",
    "metric_from_json",
]


class GeometryError(Exception):
    pass


class SingularPoint(GeometryError):
    """Evaluation at a family's excluded locus (e.g. the chart origin)."""


class NotPositiveDefinite(GeometryError):
    """Evaluated metric matrix failed the symmetric factorization check."""


class StepTooLarge(GeometryError):
    """Finite-difference stencil exits the valid chart region."""


class NonPositiveConformalFactor(GeometryError):
    pass


def _as_points(x, n):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != n:
            raise ValueError(f"point has dimension {x.shape[0]}, expected {n}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"points must have shape (N, {n})")
    return x, False


# ---------------------------------------------------------------------------
# scalar ingredients


class RadialProfile:
    """A radial conformal factor U(r) with two derivatives.

    Subclasses (or instances built from callables) supply u, du, d2u; the
    optional tail coefficient `a` declares U = 1 + a r^{2-n} + ... at
    infinity, which fixes the ADM mass 2a of the conformal metric.
    """

    def __init__(self, u, du, d2u, tail_coefficient=None, name="custom"):
        self.u = u
        self.du = du
        self.d2u = d2u
        self.tail_coefficient = tail_coefficient
        self.name = name

    def positive_u(self, r):
        """U at the radii r (an array); NonPositiveConformalFactor where
        U <= 0, since U^{4/(n-2)} delta is no metric there."""
        u = self.u(r)
        if np.any(u <= 0.0):
            raise NonPositiveConformalFactor(
                f"conformal factor U <= 0 at r={r[u <= 0.0][:3]} (profile {self.name})"
            )
        return u


def _power_profile(a, n):
    """U(r) = 1 + a / r^{n-2}."""
    p = n - 2

    def u(r):
        return 1.0 + a / r ** p

    def du(r):
        return -p * a / r ** (p + 1)

    def d2u(r):
        return p * (p + 1) * a / r ** (p + 2)

    return RadialProfile(u, du, d2u, tail_coefficient=a, name="power")


class ScalarField:
    """Scalar field with gradient and Hessian, for conformal factors.

    value: (N, n) -> (N,); grad: (N, n) -> (N, n); hess: (N, n) -> (N, n, n).
    """

    def __init__(self, value, grad, hess, name="field"):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.name = name

    def jet(self, x, order):
        """[U, grad U, Hess U][:order + 1] at the points x."""
        return [f(x) for f in (self.value, self.grad, self.hess)[:order + 1]]


class RadialField:
    """The field x -> U(|x|) of a RadialProfile, by the chain rule:
    grad U = u'(r) nu and Hess U = u'' nu nu + (u'/r)(I - nu nu), nu = x/r.

    Its jet, as ScalarField.jet, evaluates u, u' and u'' once each."""

    def __init__(self, profile):
        self.profile = profile
        self.name = profile.name

    def jet(self, x, order):
        r = np.linalg.norm(x, axis=1)
        out = [self.profile.u(r)]
        if order >= 1:
            nu = x / r[:, None]
            du = self.profile.du(r)
            out.append(du[:, None] * nu)
        if order == 2:
            nn = np.einsum("nk,nl->nkl", nu, nu)
            out.append(
                self.profile.d2u(r)[:, None, None] * nn
                + (du / r)[:, None, None] * (np.eye(x.shape[1])[None] - nn)
            )
        return out


def harmonic_dipole_field(n, a, b):
    """U = 1 + a r^{2-n} + b x^1 r^{-n}: harmonic, U -> 1, with a dipole term."""

    def value(x):
        r = np.linalg.norm(x, axis=1)
        return 1.0 + a * r ** (2 - n) + b * x[:, 0] * r ** (-n)

    def grad(x):
        r = np.linalg.norm(x, axis=1)
        g = (2 - n) * a * r[:, None] ** (-n) * x
        g += -n * b * (x[:, 0] * r ** (-n - 2))[:, None] * x
        g[:, 0] += b * r ** (-n)
        return g

    def hess(x):
        N = x.shape[0]
        r = np.linalg.norm(x, axis=1)
        xx = np.einsum("ni,nj->nij", x, x)
        eye = np.eye(n)[None]
        # Hess of a r^{2-n}
        h = (2 - n) * a * (
            r[:, None, None] ** (-n) * eye
            - n * r[:, None, None] ** (-n - 2) * xx
        )
        # Hess of b x1 r^{-n}
        e1 = np.zeros((N, n))
        e1[:, 0] = 1.0
        x1 = x[:, 0]
        h += -n * b * (
            (x1 * r ** (-n - 2))[:, None, None] * eye
            + r[:, None, None] ** (-n - 2)
            * (np.einsum("ni,nj->nij", e1, x) + np.einsum("ni,nj->nij", x, e1))
            - (n + 2) * (x1 * r ** (-n - 4))[:, None, None] * xx
        )
        return h

    return ScalarField(value, grad, hess, name="harmonic_dipole")


# ---------------------------------------------------------------------------
# families


class Family:
    """Base class: batched metric evaluation plus metadata used by the
    mass and sequence machinery."""

    name = "abstract"
    rotationally_symmetric = False
    has_analytic_derivatives = False
    #: decay exponent p of the ADM flux residual, used by extrapolation fits
    flux_decay_order = None
    #: analytic ADM mass when the family knows it
    mass_hint = None
    #: radius of the excluded ball |x| <= inner_radius about the chart origin
    inner_radius = 0.0
    #: the origin is excluded even when inner_radius is 0
    excludes_origin = False
    #: breakpoints of radial structure (e.g. matter support), for quadrature
    radial_breakpoints = ()
    #: conformal radial profile U, when the family is of the form U^{4/(n-2)} delta
    radial_profile = None

    def metric(self, x):
        raise NotImplementedError

    def dmetric(self, x):
        raise NotImplementedError

    def d2metric(self, x):
        raise NotImplementedError

    def clearance(self, x):
        """Distance |x| - inner_radius of the points x (N, n) from the
        excluded region (inf where the chart excludes nothing); a point is
        valid where it is > 0."""
        if self.inner_radius > 0.0 or self.excludes_origin:
            return np.linalg.norm(x, axis=1) - self.inner_radius
        return np.full(x.shape[0], np.inf)

    def check_points(self, x):
        if np.any(self.clearance(x) <= 0.0):
            raise SingularPoint(f"{self.name}: point in the excluded chart region")

    def params_json(self):
        raise NotImplementedError(f"{self.name} is not serializable")


class Euclidean(Family):
    name = "Euclidean"
    rotationally_symmetric = True
    has_analytic_derivatives = True
    flux_decay_order = 1.0
    mass_hint = 0.0

    def __init__(self, n):
        self.n = n
        # conformally flat with U = 1: lets closed-form sphere paths apply
        self.radial_profile = RadialProfile(
            lambda r: np.ones_like(np.asarray(r, dtype=float)),
            lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            tail_coefficient=0.0,
            name="one",
        )

    def metric(self, x):
        return np.broadcast_to(np.eye(self.n), (x.shape[0], self.n, self.n)).copy()

    def dmetric(self, x):
        n = self.n
        return np.zeros((x.shape[0], n, n, n))

    def d2metric(self, x):
        n = self.n
        return np.zeros((x.shape[0], n, n, n, n))

    def params_json(self):
        return {}


class ConformalFamily(Family):
    """g = U^{4/(n-2)} delta for a conformal factor U > 0 (n >= 3).

    `factor` is a ScalarField, or a RadialProfile, which is lifted to a
    RadialField and kept as `radial_profile` (the closed sphere forms key
    on it); a radial family is rotationally symmetric, its flux residual
    decays like r^{2-n} and its mass is 2a from the profile's tail.  `name`
    and `params` are the JSON identity; without params the family is not
    serializable.
    """

    has_analytic_derivatives = True
    excludes_origin = True

    def __init__(self, n, factor, name="ConformallyFlat", params=None,
                 inner_radius=0.0, flux_decay_order=None, mass_hint=None,
                 radial_breakpoints=()):
        self.n = n
        self.name = name
        self.params = params
        self.inner_radius = inner_radius
        self.radial_breakpoints = tuple(radial_breakpoints)
        if isinstance(factor, RadialProfile):
            self.radial_profile = factor
            self.rotationally_symmetric = True
            if flux_decay_order is None:
                flux_decay_order = float(n - 2)
            if mass_hint is None and factor.tail_coefficient is not None:
                mass_hint = 2.0 * factor.tail_coefficient
            factor = RadialField(factor)
        self.field = factor
        self.flux_decay_order = 1.0 if flux_decay_order is None else flux_decay_order
        self.mass_hint = mass_hint

    def _jet(self, x, order):
        jet = self.field.jet(x, order)
        u = jet[0]
        if np.any(u <= 0.0):
            raise NonPositiveConformalFactor(
                f"{self.name}: conformal factor U <= 0 at {x[u <= 0.0][:3]}"
                f" (factor {self.field.name})"
            )
        return jet

    def metric(self, x):
        (u,) = self._jet(x, 0)
        return (u ** (4.0 / (self.n - 2)))[:, None, None] * np.eye(self.n)[None]

    def dmetric(self, x):
        e = 4.0 / (self.n - 2)
        u, du = self._jet(x, 1)
        dF = e * (u ** (e - 1.0))[:, None] * du
        return np.einsum("nk,ij->nkij", dF, np.eye(self.n))

    def d2metric(self, x):
        e = 4.0 / (self.n - 2)
        u, du, d2u = self._jet(x, 2)
        d2F = e * (
            (e - 1.0) * (u ** (e - 2.0))[:, None, None]
            * np.einsum("nk,nl->nkl", du, du)
            + (u ** (e - 1.0))[:, None, None] * d2u
        )
        return np.einsum("nkl,ij->nklij", d2F, np.eye(self.n))

    def params_json(self):
        if self.params is None:
            return super().params_json()
        return dict(self.params)


class AsymptoticallySchwarzschildFamily(Family):
    """Schwarzschild of mass m plus a decaying perturbation h = c w(x) B.

    w(x) = (1 + |x|^2)^{-(n-1)/2} so that h = O(r^{1-n}), dh = O(r^{-n}),
    d2h = O(r^{-n-1}); B is a constant symmetric matrix (default e1 x e1,
    which breaks rotational symmetry).
    """

    name = "AsymptoticallySchwarzschild"
    has_analytic_derivatives = True
    rotationally_symmetric = False
    excludes_origin = True

    def __init__(self, n, m, c=0.1, direction=None, inner_radius=0.0):
        self.n = n
        self.m = m
        self.c = c
        self.base = schwarzschild(n, m, inner_radius=inner_radius).family
        if direction is None:
            B = np.zeros((n, n))
            B[0, 0] = 1.0
        else:
            B = np.asarray(direction, dtype=float)
            B = 0.5 * (B + B.T)
        self.B = B
        self.flux_decay_order = 1.0
        self.mass_hint = float(m)
        self.inner_radius = inner_radius

    def _w(self, x):
        n = self.n
        s = 1.0 + np.einsum("ni,ni->n", x, x)
        w = s ** (-(n - 1) / 2.0)
        dw = -(n - 1) * s[:, None] ** (-(n + 1) / 2.0) * x
        d2w = -(n - 1) * (
            s[:, None, None] ** (-(n + 1) / 2.0) * np.eye(n)[None]
            - (n + 1)
            * s[:, None, None] ** (-(n + 3) / 2.0)
            * np.einsum("nk,nl->nkl", x, x)
        )
        return w, dw, d2w

    def metric(self, x):
        w, _, _ = self._w(x)
        return self.base.metric(x) + self.c * w[:, None, None] * self.B[None]

    def dmetric(self, x):
        _, dw, _ = self._w(x)
        return self.base.dmetric(x) + self.c * np.einsum(
            "nk,ij->nkij", dw, self.B
        )

    def d2metric(self, x):
        _, _, d2w = self._w(x)
        return self.base.d2metric(x) + self.c * np.einsum(
            "nkl,ij->nklij", d2w, self.B
        )

    def params_json(self):
        return {"m": self.m, "c": self.c}


class ScaledFamily(Family):
    """Homothety lambda^2 * g, presented in the dilated chart y = lambda x.

    In that chart the components are g(y / lambda), the metric stays
    asymptotically flat, and the mass picks up a factor lambda^{n-2}.
    """

    name = "Scaled"

    def __init__(self, base_spec, lam):
        if lam <= 0.0:
            raise ValueError("scale factor must be positive")
        self.base_spec = base_spec
        self.lam = float(lam)
        b = base_spec.family
        self.n = b.n
        self.rotationally_symmetric = b.rotationally_symmetric
        self.has_analytic_derivatives = b.has_analytic_derivatives
        self.flux_decay_order = b.flux_decay_order
        self.inner_radius = self.lam * b.inner_radius
        self.excludes_origin = b.excludes_origin
        self.radial_breakpoints = tuple(
            self.lam * r for r in b.radial_breakpoints
        )
        if b.mass_hint is not None:
            self.mass_hint = self.lam ** (self.n - 2) * b.mass_hint

    @property
    def radial_profile(self):
        p = self.base_spec.family.radial_profile
        if p is None:
            return None
        lam = self.lam
        tail = None
        if p.tail_coefficient is not None:
            # 1 + a (r/lam)^{2-n} = 1 + a lam^{n-2} r^{2-n}
            tail = p.tail_coefficient * lam ** (self.n - 2)
        return RadialProfile(
            lambda r: p.u(np.asarray(r) / lam),
            lambda r: p.du(np.asarray(r) / lam) / lam,
            lambda r: p.d2u(np.asarray(r) / lam) / lam ** 2,
            tail_coefficient=tail,
            name=f"dilated({p.name})",
        )

    def metric(self, x):
        return self.base_spec.family.metric(x / self.lam)

    def dmetric(self, x):
        return self.base_spec.family.dmetric(x / self.lam) / self.lam

    def d2metric(self, x):
        return self.base_spec.family.d2metric(x / self.lam) / self.lam ** 2

    def clearance(self, x):
        return self.lam * self.base_spec.family.clearance(x / self.lam)

    def params_json(self):
        return {"base": metric_to_json(self.base_spec), "lambda": self.lam}


class TranslatedFamily(Family):
    """g(x) = base(x + offset): moves the chart origin."""

    name = "Translated"

    def __init__(self, base_spec, offset):
        self.base_spec = base_spec
        b = base_spec.family
        self.n = b.n
        self.offset = np.asarray(offset, dtype=float)
        if self.offset.shape != (self.n,):
            raise ValueError("offset dimension mismatch")
        self.rotationally_symmetric = False
        self.has_analytic_derivatives = b.has_analytic_derivatives
        self.flux_decay_order = b.flux_decay_order
        self.mass_hint = b.mass_hint

    def metric(self, x):
        return self.base_spec.family.metric(x + self.offset)

    def dmetric(self, x):
        return self.base_spec.family.dmetric(x + self.offset)

    def d2metric(self, x):
        return self.base_spec.family.d2metric(x + self.offset)

    def clearance(self, x):
        return self.base_spec.family.clearance(x + self.offset)

    def params_json(self):
        return {
            "base": metric_to_json(self.base_spec),
            "offset": list(self.offset),
        }


# ---------------------------------------------------------------------------
# spec and operations


@dataclass(frozen=True)
class MetricSpec:
    """Declarative description of a charted metric.

    derivative_mode selects analytic derivatives (when the family has them)
    or central finite differences with step fd_step (default step rule:
    eps^{1/3} max(1, |x|) for first derivatives, eps^{1/4} max(1, |x|) for
    second derivatives).
    """

    family: Family
    derivative_mode: str = "analytic"
    fd_step: float = None

    def __post_init__(self):
        if self.derivative_mode not in ("analytic", "fd"):
            raise ValueError("derivative_mode must be 'analytic' or 'fd'")
        if self.derivative_mode == "analytic" and not self.family.has_analytic_derivatives:
            raise ValueError(
                f"family {self.family.name} has no analytic derivatives; use fd"
            )

    @property
    def n(self):
        return self.family.n


@dataclass(frozen=True)
class PointwiseCurvature:
    christoffel: np.ndarray
    ricci: np.ndarray
    scalar: float


def euclidean(n, **kw):
    return MetricSpec(Euclidean(n), **kw)


def schwarzschild(n, m, inner_radius=0.0, **kw):
    """U = 1 + m / (2 r^{n-2}): mass m, scalar flat."""
    params = {"m": m, **({"inner_radius": inner_radius} if inner_radius else {})}
    return MetricSpec(ConformalFamily(
        n, _power_profile(m / 2.0, n), "Schwarzschild", params,
        inner_radius=inner_radius,
    ), **kw)


def harmonically_flat(n, a, **kw):
    """U = 1 + a r^{2-n}: mass 2a, scalar flat."""
    return MetricSpec(
        ConformalFamily(n, _power_profile(a, n), "HarmonicallyFlat", {"a": a}), **kw
    )


def conformally_flat(n, u_field, mass_hint=None, flux_decay_order=None,
                     inner_radius=0.0, **kw):
    """Conformal metric from a RadialProfile or a ScalarField."""
    return MetricSpec(ConformalFamily(
        n, u_field, inner_radius=inner_radius,
        flux_decay_order=flux_decay_order, mass_hint=mass_hint,
    ), **kw)


def asymptotically_schwarzschild(n, m, c=0.1, direction=None, **kw):
    return MetricSpec(
        AsymptoticallySchwarzschildFamily(n, m, c=c, direction=direction), **kw
    )


def scaled(base, lam, **kw):
    kw.setdefault("derivative_mode", base.derivative_mode)
    kw.setdefault("fd_step", base.fd_step)
    return MetricSpec(ScaledFamily(base, lam), **kw)


def translated(base, offset, **kw):
    kw.setdefault("derivative_mode", base.derivative_mode)
    kw.setdefault("fd_step", base.fd_step)
    return MetricSpec(TranslatedFamily(base, offset), **kw)


def metric_at(spec, x, check=True):
    """Metric matrix g_ij(x); batched if x is (N, n).

    Raises SingularPoint outside the valid chart region and
    NotPositiveDefinite when the evaluated matrix fails Cholesky.
    """
    pts, single = _as_points(x, spec.n)
    spec.family.check_points(pts)
    g = spec.family.metric(pts)
    if check:
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                f"{spec.family.name}: metric not positive definite"
            ) from None
    return g[0] if single else g


def _fd_steps(spec, pts):
    scale = np.max(np.maximum(1.0, np.linalg.norm(pts, axis=1)))
    if spec.fd_step is not None:
        return spec.fd_step, spec.fd_step
    return EPS ** (1.0 / 3.0) * scale, EPS ** 0.25 * scale


def metric_derivatives_at(spec, x, order=2):
    """First (and optionally second) coordinate derivatives of g.

    Returns dg for order 1, (dg, d2g) for order 2.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    pts, single = _as_points(x, spec.n)
    spec.family.check_points(pts)
    if spec.derivative_mode == "analytic":
        dg = spec.family.dmetric(pts)
        d2g = spec.family.d2metric(pts) if order == 2 else None
    else:
        h1, h2 = _fd_steps(spec, pts)
        _check_stencil(spec, pts, 2.0 * max(h1, h2))
        dg, _ = fd_metric_derivatives(spec.family.metric, pts, h1)
        d2g = None
        if order == 2:
            _, d2g = fd_metric_derivatives(spec.family.metric, pts, h2)
    if single:
        dg = dg[0]
        d2g = d2g[0] if d2g is not None else None
    return dg if order == 1 else (dg, d2g)


def _check_stencil(spec, pts, reach):
    if np.any(spec.family.clearance(pts) <= reach):
        raise StepTooLarge(
            "finite-difference stencil exits the valid chart region"
        )


def curvature_at(spec, x):
    """Christoffel symbols, Ricci tensor, and scalar curvature at x."""
    pts, single = _as_points(x, spec.n)
    g = metric_at(spec, pts)
    dg, d2g = metric_derivatives_at(spec, pts, order=2)
    gamma = christoffel(np.linalg.inv(g), dg)
    ric = ricci_tensor(g, dg, d2g)
    scal = np.einsum("njk,njk->n", np.linalg.inv(g), ric)
    if single:
        return PointwiseCurvature(gamma[0], ric[0], float(scal[0]))
    return PointwiseCurvature(gamma, ric, scal)


def scalar_curvature_at(spec, x):
    """Scalar curvature only (batched)."""
    pts, single = _as_points(x, spec.n)
    g = metric_at(spec, pts)
    dg, d2g = metric_derivatives_at(spec, pts, order=2)
    R = scalar_curvature(g, dg, d2g)
    return float(R[0]) if single else R


# ---------------------------------------------------------------------------
# JSON round-trip (named families only)


def metric_to_json(spec):
    return {
        "n": spec.n,
        "family": spec.family.name,
        "params": spec.family.params_json(),
        "derivative_mode": "fd" if spec.derivative_mode == "fd" else "analytic",
        **({"fd_step": spec.fd_step} if spec.fd_step is not None else {}),
    }


def metric_from_json(doc):
    n = int(doc["n"])
    fam = doc["family"]
    p = doc.get("params", {})
    kw = {}
    if doc.get("derivative_mode") == "fd":
        kw["derivative_mode"] = "fd"
    if "fd_step" in doc:
        kw["fd_step"] = doc["fd_step"]
    if fam == "Euclidean":
        return euclidean(n, **kw)
    if fam == "Schwarzschild":
        return schwarzschild(n, p["m"], inner_radius=p.get("inner_radius", 0.0), **kw)
    if fam == "HarmonicallyFlat":
        return harmonically_flat(n, p["a"], **kw)
    if fam == "AsymptoticallySchwarzschild":
        return asymptotically_schwarzschild(n, p["m"], c=p.get("c", 0.1), **kw)
    if fam == "ShellConformal":
        from . import shells  # deferred: shells imports this module

        return shells.shell_metric(n, int(p["i"]), **kw)
    if fam == "Cone2D":
        from . import cone

        amp = p.get("perturbation", 0.0)
        if amp:
            surface = cone.perturbed_cone(
                p["alpha"], amplitude=amp, tau=p.get("tau", 1.0)
            )
        else:
            surface = cone.capped_cone(p["alpha"])
        return cone.cone_metric_spec(surface, **kw)
    if fam == "Scaled":
        return scaled(metric_from_json(p["base"]), p["lambda"], **kw)
    if fam == "Translated":
        return translated(metric_from_json(p["base"]), p["offset"], **kw)
    raise ValueError(f"unknown metric family {fam!r}")
