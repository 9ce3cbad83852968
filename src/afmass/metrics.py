"""Asymptotically flat metrics in a single coordinate chart.

Each metric family evaluates the matrix g_ij(x) and its first and second
coordinate derivatives in closed form, batched over points, in one `jet`.
The flux functionals take the mass vector V_j = d_i g_ij - d_j g_ii
(mass_vector), which a family with a closed form writes without the jet.
Specs are immutable; evaluation is pure.

Conformally flat metrics g = U^{4/(n-2)} delta are the workhorse, all of
them one ConformalFamily: the Schwarzschild metric uses U = 1 + m/(2 r^{n-2}),
harmonically flat metrics use a harmonic U -> 1, and the matter-shell
sequence supplies U = 1 + v_i from a solved radial potential.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import fd_metric_derivatives

EPS = np.finfo(float).eps

__all__ = [
    "GeometryError",
    "SingularPoint",
    "NotPositiveDefinite",
    "StepTooLarge",
    "NonPositiveConformalFactor",
    "MetricSpec",
    "RadialProfile",
    "ScalarField",
    "RadialField",
    "ConformalFamily",
    "harmonic_dipole_field",
    "euclidean",
    "schwarzschild",
    "harmonically_flat",
    "conformally_flat",
    "asymptotically_schwarzschild",
    "scaled",
    "translated",
    "metric_jet",
    "metric_derivatives_at",
    "mass_vector",
    "metric_to_json",
    "metric_from_json",
]


class GeometryError(Exception):
    pass


class SingularPoint(GeometryError):
    """Evaluation at a family's excluded locus (e.g. the chart origin)."""


class NotPositiveDefinite(GeometryError):
    """The metric matrix is not positive definite at some point."""


class StepTooLarge(GeometryError):
    """Finite-difference stencil exits the valid chart region."""


class NonPositiveConformalFactor(NotPositiveDefinite):
    """A conformal factor U <= 0: U^{4/(n-2)} delta is no metric there."""


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


def _trace_mass_vector(derivs):
    """[V, div V] from [dg, d2g] (or [dg]): V_j = d_i g_ij - d_j g_ii and
    div V = d_i d_j g_ij - d_j d_j g_ii."""
    out = [np.einsum("niij->nj", derivs[0]) - np.einsum("njii->nj", derivs[0])]
    if len(derivs) == 2:
        out.append(
            np.einsum("nijij->n", derivs[1]) - np.einsum("njjii->n", derivs[1]))
    return out


def _conformal_mass_vector(n, F):
    """[V, div V][:order] of g = F delta from [F, dF, d2F][:order + 1]:
    V = (1 - n) grad F and div V = (1 - n) lap F."""
    out = [(1.0 - n) * F[1]]
    if len(F) == 3:
        out.append((1.0 - n) * np.einsum("nii->n", F[2]))
    return out


def _times_identity(f, n):
    """f delta_ij, shape f.shape + (n, n): zeros with f written onto the
    diagonal of the last two axes through a flat strided view."""
    out = np.zeros(f.shape + (n, n))
    out.reshape(-1, n * n)[:, ::n + 1] = f.reshape(-1, 1)
    return out


class Family:
    """Base class: batched metric evaluation plus metadata used by the
    mass and sequence machinery."""

    name = "abstract"
    #: the `symmetry` of geometry.sample_spheres: True when g is invariant
    #: under every rotation (g(R x) = R g(x) R^T for every R in O(n)), a
    #: unit vector a when it is invariant under those that fix a (R a = a),
    #: else False
    symmetry = False
    #: decay exponent p of the ADM flux residual, used by extrapolation fits
    #: (capped at n - 2 and raised to at least 1)
    flux_decay_order = 1.0
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

    def jet(self, x, order):
        """[g, dg, d2g][:order + 1] at the points x (N, n), in the layout of
        afmass.curvature.  Every family writes it in closed form.

        g is positive definite at every point: a family raises
        NotPositiveDefinite (or its subclass NonPositiveConformalFactor)
        where it is not, so no caller checks g again.  Every finite
        difference stencil evaluates metric, so it is checked too.

        The arrays are fresh: they share no memory with the family or with
        an earlier call, so the caller owns them and may modify them in
        place (the wrapper families scale or add into their base's jet)."""
        raise NotImplementedError(f"{self.name} has no jet")

    def metric(self, x):
        """g at the points x: jet(x, 0)[0], what finite differences evaluate."""
        return self.jet(x, 0)[0]

    def mass_vector(self, x, order):
        """[V, div V][:order] at the points x (N, n), with the mass vector
        V_j = d_i g_ij - d_j g_ii (see metrics.mass_vector), checked as jet.
        This default takes the traces of the dense jet; a family with a
        closed form overrides it and builds no array of dg's size."""
        return _trace_mass_vector(self.jet(x, order)[1:])

    def clearance(self, x):
        """Distance |x| - inner_radius of the points x (N, n) from the
        excluded region (inf where the chart excludes nothing); a point is
        valid where it is > 0."""
        if self.inner_radius > 0.0 or self.excludes_origin:
            return np.linalg.norm(x, axis=1) - self.inner_radius
        return np.full(x.shape[0], np.inf)

    def support_radius(self):
        """Radius of the centred ball that holds the family's radial
        structure and its excluded ball: max(breakpoints, inner radius)."""
        return max((self.inner_radius, *self.radial_breakpoints))

    def check_points(self, x):
        if np.any(self.clearance(x) <= 0.0):
            raise SingularPoint(f"{self.name}: point in the excluded chart region")

    def params_json(self):
        raise NotImplementedError(f"{self.name} is not serializable")


class Euclidean(Family):
    name = "Euclidean"
    symmetry = True
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

    def jet(self, x, order):
        N, n = x.shape
        return [np.broadcast_to(np.eye(n), (N, n, n)).copy()] + [
            np.zeros((N,) + (n,) * (k + 2)) for k in range(1, order + 1)
        ]

    def params_json(self):
        return {}


class ConformalFamily(Family):
    """g = U^{4/(n-2)} delta for a conformal factor U > 0 (n >= 3).

    `factor` is a ScalarField, or a RadialProfile, which is lifted to a
    RadialField and kept as `radial_profile` (the closed sphere forms key
    on it); a radial family is rotationally symmetric, its flux residual
    decays like r^{2-n} and its mass is 2a from the profile's tail.  A
    field's flux residual is taken to decay like 1/r, and its mass is not
    known.  `name` and `params` are the JSON identity; without params the
    family is not serializable.
    """

    excludes_origin = True

    def __init__(self, n, factor, name="ConformallyFlat", params=None,
                 inner_radius=0.0, radial_breakpoints=()):
        self.n = n
        self.name = name
        self.params = params
        self.inner_radius = inner_radius
        self.radial_breakpoints = tuple(radial_breakpoints)
        if isinstance(factor, RadialProfile):
            self.radial_profile = factor
            self.symmetry = True
            self.flux_decay_order = float(n - 2)
            if factor.tail_coefficient is not None:
                self.mass_hint = 2.0 * factor.tail_coefficient
            factor = RadialField(factor)
        self.field = factor

    @np.errstate(over="ignore", invalid="ignore")
    def _factor_jet(self, x, order):
        """[F, dF, d2F][:order + 1] of F = U^e, e = 4/(n-2): dF = e U^{e-1}
        grad U and d2F = e U^{e-1} Hess U + e (e-1) U^{e-2} grad U grad U,
        from one jet of the factor.  Raises NonPositiveConformalFactor where
        U <= 0 and NotPositiveDefinite where U^e under- or overflows."""
        jet = self.field.jet(x, order)
        u = jet[0]
        if np.any(u <= 0.0):
            raise NonPositiveConformalFactor(
                f"{self.name}: conformal factor U <= 0 at {x[u <= 0.0][:3]}"
                f" (factor {self.field.name})"
            )
        e = 4.0 / (self.n - 2)
        F = [u ** e]
        if order >= 1:
            f1 = e * u ** (e - 1.0)
            F.append(f1[:, None] * jet[1])
        if order == 2:
            F.append(
                f1[:, None, None] * jet[2]
                + (e * (e - 1.0) * u ** (e - 2.0))[:, None, None]
                * np.einsum("nk,nl->nkl", jet[1], jet[1])
            )
        # a sum of the entries is finite only if each entry is
        if not (F[0].min() > 0.0 and np.isfinite(sum(f.sum() for f in F))):
            bad = ~(F[0] > 0.0)
            for f in F:
                bad |= ~np.isfinite(f.reshape(len(f), -1)).all(axis=1)
            raise NotPositiveDefinite(
                f"{self.name}: U^{e:g} under- or overflows at"
                f" {x[np.argmax(bad)].tolist()}"
            )
        return F

    def jet(self, x, order):
        """g = F delta, written onto zeroed diagonals (_times_identity)."""
        return [_times_identity(f, self.n) for f in self._factor_jet(x, order)]

    def mass_vector(self, x, order):
        return _conformal_mass_vector(self.n, self._factor_jet(x, order))

    def params_json(self):
        if self.params is None:
            return super().params_json()
        return dict(self.params)


class AsymptoticallySchwarzschildFamily(Family):
    """Schwarzschild of mass m plus a decaying perturbation h = c w(x) B.

    w(x) = (1 + |x|^2)^{-(n-1)/2} so that h = O(r^{1-n}), dh = O(r^{-n}),
    d2h = O(r^{-n-1}); B is a constant symmetric matrix (default e1 x e1,
    which breaks rotational symmetry).  The family has an axis exactly
    when B = a I + b v v^T: the axis is v, or e1 when B = a I.
    """

    name = "AsymptoticallySchwarzschild"
    excludes_origin = True

    def __init__(self, n, m, c=0.1, direction=None):
        self.n = n
        self.m = m
        self.c = c
        self.base = schwarzschild(n, m).family
        B = _default_direction(n)
        if direction is not None:
            B = np.asarray(direction, dtype=float)
            if B.shape != (n, n):
                raise ValueError(f"direction must be an {n} x {n} matrix")
            B = 0.5 * (B + B.T)
        self.B = B
        # 0 < w <= 1, so c w B overflows at order 0 only where c B does
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(c * B)):
                raise NotPositiveDefinite(f"{self.name}: c B overflows (c = {c})")
        # the entries (i, j) where c w B adds to the base's jet
        self._nonzero = tuple(zip(*np.nonzero(B)))
        # g = F I + c w B with w > 0 has lowest eigenvalue F + w lowest; with
        # c B positive semidefinite (lowest = 0) F > 0 suffices
        self._lowest = min(0.0, float(np.linalg.eigvalsh(c * B)[0]))
        # per unit of max |w_k|, a bound on the entries of c w_k B and of the
        # traces mass_vector takes of it (inf when even that overflows)
        with np.errstate(over="ignore"):
            self._reach = 2.0 * n * n * abs(c) * float(np.max(np.abs(B)))
        self.symmetry = _axis_of(B)
        self.mass_hint = float(m)

    def _weight_jet(self, x, order, f):
        """[w, dw, d2w][:order + 1] of w = s^p, s = 1 + |x|^2, p = -(n-1)/2:
        dw = 2p s^{p-1} x, d2w = 2p s^{p-1} I + 4p(p-1) s^{p-2} x x.  f is
        the base's F = U^e at x; raises NotPositiveDefinite where
        F + w lowest <= 0, the lowest eigenvalue of g = F I + c w B, and,
        for order >= 1, where c w B or its derivatives overflow.  Order 0
        is not checked: there 0 < w <= 1, so c w B overflows only where
        c B itself does, which __init__ rejects."""
        p = -(self.n - 1) / 2.0
        s = 1.0 + np.einsum("ni,ni->n", x, x)
        w = [s ** p]
        if self._lowest < 0.0:
            bad = f + w[0] * self._lowest <= 0.0
            if np.any(bad):
                raise NotPositiveDefinite(
                    f"{self.name}: metric not positive definite at {x[bad][:3]}"
                    f" (c = {self.c})"
                )
        if order >= 1:
            w.append((2.0 * p * s ** (p - 1.0))[:, None] * x)
        if order == 2:
            w.append(
                (2.0 * p * s ** (p - 1.0))[:, None, None] * np.eye(self.n)
                + (4.0 * p * (p - 1.0) * s ** (p - 2.0))[:, None, None]
                * np.einsum("nk,nl->nkl", x, x)
            )
        if order >= 1:
            largest = max(np.abs(wk).max(initial=0.0) for wk in w)
            with np.errstate(over="ignore", invalid="ignore"):
                overflows = self._reach * largest > np.finfo(float).max
            if overflows:
                raise NotPositiveDefinite(
                    f"{self.name}: c w B overflows at order {order} (c = {self.c})"
                )
        return w

    def jet(self, x, order):
        """The base's jet plus c B times the jet of w, added into the base's
        jet in place, at B's nonzero entries."""
        jet = self.base.jet(x, order)
        w = self._weight_jet(x, order, jet[0][:, 0, 0])
        for d, wk in zip(jet, w):
            cw = self.c * wk
            for i, j in self._nonzero:
                d[..., i, j] += cw * self.B[i, j]
        return jet

    def mass_vector(self, x, order):
        """The base's closed form plus c (B grad w - tr B grad w) and
        c (B : Hess w - tr B lap w)."""
        F = self.base._factor_jet(x, order)
        w = self._weight_jet(x, order, F[0])
        out = _conformal_mass_vector(self.n, F)
        trace = np.trace(self.B)
        out[0] += self.c * (w[1] @ self.B - trace * w[1])
        if order == 2:
            out[1] += self.c * (
                np.einsum("nij,ij->n", w[2], self.B)
                - trace * np.einsum("nii->n", w[2]))
        return out

    def params_json(self):
        params = {"m": self.m, "c": self.c}
        if not np.array_equal(self.B, _default_direction(self.n)):
            params["direction"] = self.B.tolist()
        return params


def _default_direction(n):
    """B = e1 e1^T, the perturbation's default direction."""
    B = np.zeros((n, n))
    B[0, 0] = 1.0
    return B


def _axis_of(B):
    """The unit axis v of a symmetric B = a I + b v v^T (e1 when B = a I),
    or False when B has no such form: n - 1 of its eigenvalues agree to a
    few ulp of max |B|."""
    n = B.shape[0]
    lam, vec = np.linalg.eigh(B)
    tol = 8.0 * EPS * np.max(np.abs(B))
    if lam[-1] - lam[0] <= tol:
        return np.eye(n)[0]
    if lam[-1] - lam[1] <= tol:
        return vec[:, 0]
    if lam[-2] - lam[0] <= tol:
        return vec[:, -1]
    return False


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
        # the dilation commutes with every rotation
        self.symmetry = b.symmetry
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

    def jet(self, x, order):
        jet = self.base_spec.family.jet(x / self.lam, order)
        for k in range(1, order + 1):
            jet[k] /= self.lam ** k
        return jet

    def mass_vector(self, x, order):
        out = self.base_spec.family.mass_vector(x / self.lam, order)
        for k, d in enumerate(out, 1):
            d /= self.lam ** k
        return out

    def clearance(self, x):
        return self.lam * self.base_spec.family.clearance(x / self.lam)

    def support_radius(self):
        return self.lam * self.base_spec.family.support_radius()

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
        self.flux_decay_order = b.flux_decay_order
        self.mass_hint = b.mass_hint

    def jet(self, x, order):
        return self.base_spec.family.jet(x + self.offset, order)

    def mass_vector(self, x, order):
        return self.base_spec.family.mass_vector(x + self.offset, order)

    def clearance(self, x):
        return self.base_spec.family.clearance(x + self.offset)

    def support_radius(self):
        # the base's centred ball, moved by the offset; radial_breakpoints
        # stay empty, since the centred radial panels would misplace them
        return self.base_spec.family.support_radius() + float(
            np.linalg.norm(self.offset))

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

    derivative_mode selects the family's analytic derivatives or central
    finite differences with step fd_step (default step rule, per point:
    eps^{1/3} max(1, |x|) for first derivatives, eps^{1/4} max(1, |x|) for
    second derivatives).
    """

    family: Family
    derivative_mode: str = "analytic"
    fd_step: float = None

    def __post_init__(self):
        if self.derivative_mode not in ("analytic", "fd"):
            raise ValueError(
                f"derivative_mode must be 'analytic' or 'fd', got {self.derivative_mode!r}")

    @property
    def n(self):
        return self.family.n


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


def conformally_flat(n, u_field, **kw):
    """Conformal metric from a RadialProfile or a ScalarField."""
    return MetricSpec(ConformalFamily(n, u_field), **kw)


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


def metric_jet(spec, x, order=2):
    """[g, dg, d2g][:order + 1] at x; batched if x is (N, n).

    Order 0 is the family's metric, analytic orders come from one family
    jet, and in fd mode each derivative order is one central stencil whose
    first centre is g; the default steps are per point, so a point's jet
    does not depend on the other points of the call, and with an explicit
    fd_step both orders share one stencil.  Raises SingularPoint outside
    the valid chart region, StepTooLarge when a stencil leaves it and
    NotPositiveDefinite where the family's g is not positive definite (see
    Family.jet).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    pts, single = _as_points(x, spec.n)
    family = spec.family
    family.check_points(pts)
    if order == 0:
        jet = [family.metric(pts)]
    elif spec.derivative_mode == "analytic":
        jet = family.jet(pts, order)
    else:
        h1, h2 = _fd_steps(spec, pts)
        _check_stencil(spec, pts, 2.0 * (h1 if order == 1 else np.maximum(h1, h2)))
        jet = list(fd_metric_derivatives(family.metric, pts, h1)[:order + 1])
        if order == 2 and spec.fd_step is None:
            jet[2] = fd_metric_derivatives(family.metric, pts, h2)[2]
    return [d[0] for d in jet] if single else jet


def metric_derivatives_at(spec, x, order=2):
    """First (and optionally second) coordinate derivatives of g.

    Returns dg for order 1, (dg, d2g) for order 2.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    derivs = metric_jet(spec, x, order)[1:]
    return derivs[0] if order == 1 else tuple(derivs)


def mass_vector(spec, x, order=1):
    """[V, div V][:order] at x: the mass vector V_j = d_i g_ij - d_j g_ii,
    whose flux through large spheres is the ADM mass, and its divergence
    D = d_i d_j g_ij - d_j d_j g_ii.  Batched if x is (N, n): V is (N, n)
    and div V is (N,).

    The points are checked as by metric_jet.  Analytic orders come from the
    family's mass_vector, which builds no dense dg or d2g where the family
    has a closed form; in fd mode the traces of metric_derivatives_at's
    stencils are taken.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    pts, single = _as_points(x, spec.n)
    family = spec.family
    family.check_points(pts)
    if spec.derivative_mode == "analytic":
        out = family.mass_vector(pts, order)
    else:
        derivs = metric_derivatives_at(spec, pts, order)
        out = _trace_mass_vector(derivs if order == 2 else (derivs,))
    return [d[0] for d in out] if single else out


def _fd_steps(spec, pts):
    """The first- and second-derivative steps: the explicit fd_step for both,
    else one step per point (N,) scaled by max(1, |x|)."""
    if spec.fd_step is not None:
        return spec.fd_step, spec.fd_step
    scale = np.maximum(1.0, np.linalg.norm(pts, axis=1))
    return EPS ** (1.0 / 3.0) * scale, EPS ** 0.25 * scale


def _check_stencil(spec, pts, reach):
    if np.any(spec.family.clearance(pts) <= reach):
        raise StepTooLarge(
            "finite-difference stencil exits the valid chart region"
        )


# ---------------------------------------------------------------------------
# JSON round-trip (named families only)


def metric_to_json(spec):
    return {
        "n": spec.n,
        "family": spec.family.name,
        "params": spec.family.params_json(),
        "derivative_mode": spec.derivative_mode,
        **({"fd_step": spec.fd_step} if spec.fd_step is not None else {}),
    }


def metric_from_json(doc):
    """The MetricSpec of a document; ValueError when the document names an
    unknown family or derivative mode, or a family of another dimension
    than its n."""
    n = int(doc["n"])
    spec = _spec_from_json(doc, n)
    if spec.n != n:
        raise ValueError(
            f"family {doc['family']} has n = {spec.n}, the document says n = {n}"
        )
    return spec


def _spec_from_json(doc, n):
    fam = doc["family"]
    p = doc.get("params", {})
    kw = {key: doc[key] for key in ("derivative_mode", "fd_step") if key in doc}
    if fam == "Euclidean":
        return euclidean(n, **kw)
    if fam == "Schwarzschild":
        return schwarzschild(n, p["m"], inner_radius=p.get("inner_radius", 0.0), **kw)
    if fam == "HarmonicallyFlat":
        return harmonically_flat(n, p["a"], **kw)
    if fam == "AsymptoticallySchwarzschild":
        return asymptotically_schwarzschild(
            n, p["m"], c=p.get("c", 0.1), direction=p.get("direction"), **kw)
    if fam == "ShellConformal":
        from . import shells  # deferred: shells imports this module

        return shells.shell_metric(n, int(p["i"]), **kw)
    if fam == "Scaled":
        return scaled(metric_from_json(p["base"]), p["lambda"], **kw)
    if fam == "Translated":
        return translated(metric_from_json(p["base"]), p["offset"], **kw)
    raise ValueError(f"unknown metric family {fam!r}")
