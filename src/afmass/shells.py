"""Conformal metrics sourced by spherically symmetric matter shells.

A nonnegative radial density rho supported in [1/2, 1] with unit total
integral is spread out by the scaling

    rho_i(x) = i^{-n} rho(x / i),

which keeps the total integral equal to one while the support escapes to
infinity.  The conformal factor solves -Delta v_i = rho_i with v_i -> 0,
giving metrics u_i^{4/(n-2)} delta with u_i = 1 + v_i.  Every member has
the same total mass, 2 / ((n-2) omega_{n-1}), while the matter moves away;
inside the shell each metric is exactly flat.

Radial ODE facts used throughout (Q(r) = int_0^r s^{n-1} rho(s) ds):

    v'(r)  = -r^{1-n} Q(r)
    v''(r) = (n-1) r^{-n} Q(r) - rho(r)
    v(r)   = Q(infinity) r^{2-n} / (n-2)   for r past the support.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import unit_sphere_area
from .metrics import (
    ConformalFamily,
    GeometryError,
    MetricSpec,
    NonPositiveConformalFactor,
    RadialProfile,
)

__all__ = [
    "GridTooCoarse",
    "ShellDensity",
    "default_shell_density",
    "solve_shell_potential",
    "shell_metric",
    "shell_tail_coefficient",
    "shell_mass",
    "shell_matter_coupling",
]

MIN_SUPPORT_NODES = 32


class GridTooCoarse(GeometryError):
    """Radial grid resolves the density support with too few nodes."""


@dataclass(frozen=True)
class ShellDensity:
    """Radial density profile: callable rho(r), support [lo, hi], total
    integral int rho dx = total (over R^n, so including the area factor)."""

    rho: callable
    lo: float
    hi: float


def default_shell_density(n):
    """Smooth bump on [1/2, 1], normalized to unit total integral in R^n.

    Base profile (1 - (4(s - 3/4))^2)^3: C^2 at both endpoints.  On the
    support s^{n-1} times the bump is a polynomial of degree n + 5, so the
    16-node Gauss-Legendre rule normalizes it exactly."""

    def bump(s):
        s = np.asarray(s, dtype=float)
        t = 1.0 - (4.0 * (s - 0.75)) ** 2
        out = np.where((s > 0.5) & (s < 1.0), np.maximum(t, 0.0) ** 3, 0.0)
        return out

    xg, wg = np.polynomial.legendre.leggauss(16)
    s = 0.25 * (xg + 1.0) + 0.5
    raw = 0.25 * float(np.dot(wg, s ** (n - 1) * bump(s)))
    norm = unit_sphere_area(n) * raw

    def rho(s):
        return bump(s) / norm

    return ShellDensity(rho=rho, lo=0.5, hi=1.0)


def _charge_function(n, density, i, radial_q=80):
    """Q_i(r) = int_0^r s^{n-1} rho_i(s) ds, one Gauss panel per radius.

    rho_i(s) = i^{-n} rho(s / i) is supported in [i*lo, i*hi]; Q_i is 0
    before the support and constant after it, so each panel runs over
    [lo, clip(r, lo, hi)].  Returns Q, the limiting value
    Q_i(inf) = total / omega_{n-1}, and panel(a, b, p): the sums
    int_a^b s^p rho_i(s) ds with one radial_q-node Gauss-Legendre panel per
    pair of bounds (a and b broadcast against each other).  Inside the
    support the default rho_i is a polynomial of degree 6, so the panels of
    s^{n-1} rho_i and s rho_i are exact."""
    if radial_q < MIN_SUPPORT_NODES:
        raise GridTooCoarse(
            f"{radial_q} nodes across the density support; need >= {MIN_SUPPORT_NODES}"
        )
    lo, hi = i * density.lo, i * density.hi
    xg, wg = np.polynomial.legendre.leggauss(radial_q)

    def panel(a, b, p):
        a = np.asarray(a, dtype=float)
        half = np.asarray(0.5 * (b - a))
        s = half[..., None] * (xg + 1.0) + a[..., None]
        return half * ((s ** p * i ** (-n) * density.rho(s / i)) @ wg)

    def Q(r):
        return panel(lo, np.clip(np.asarray(r, dtype=float), lo, hi), n - 1)

    return Q, float(Q(hi)), panel


def solve_shell_potential(n, i, density=None, radial_q=80):
    """RadialProfile u_i = 1 + v_i with -Delta v_i = rho_i, v_i(inf) = 0.

    Newton's shell theorem: integrating v(r) = int_r^inf s^{1-n} Q(s) ds by
    parts gives

        v(r) = (r^{2-n} Q(r) + int_r^inf s rho_i(s) ds) / (n - 2),

    two Gauss panels per radius, over [lo, t] and [t, hi] with
    t = clip(r, lo, hi).  Past the support this is the exact power tail
    Q_inf r^{2-n} / (n-2); inside the cavity Q = 0 and v is constant, and
    max(r, lo) in place of r keeps 0 * inf out of it (also in v' and v'')."""
    if n < 3:
        raise ValueError("need n >= 3 for a decaying potential")
    if density is None:
        density = default_shell_density(n)
    lo, hi = i * density.lo, i * density.hi
    Q, q_inf, panel = _charge_function(n, density, i, radial_q=radial_q)
    tail = q_inf / (n - 2)

    def v(r):
        r = np.asarray(r, dtype=float)
        return (np.maximum(r, lo) ** (2 - n) * Q(r)
                + panel(np.clip(r, lo, hi), hi, 1)) / (n - 2)

    def dv(r):
        r = np.asarray(r, dtype=float)
        return -np.maximum(r, lo) ** (1 - n) * Q(r)

    def d2v(r):
        r = np.asarray(r, dtype=float)
        rho_vals = i ** (-n) * density.rho(r / i)
        return (n - 1) * np.maximum(r, lo) ** (-n) * Q(r) - rho_vals

    u0 = float(v(np.array([max(lo * 0.5, 1e-6)]))[0])
    if 1.0 + u0 <= 0.0:
        raise NonPositiveConformalFactor("1 + v is not positive")

    return RadialProfile(
        u=lambda r: 1.0 + v(np.asarray(r, dtype=float)),
        du=dv,
        d2u=d2v,
        tail_coefficient=tail,
        name=f"shell(i={i})",
    )


def shell_tail_coefficient(n, density=None):
    """Tail coefficient a with v_i = a r^{2-n} past the support.

    Independent of i: the scaling preserves the total integral, so
    a = total / ((n-2) omega_{n-1}) = 1 / ((n-2) omega_{n-1}) for the
    default unit-mass density."""
    if density is None:
        return 1.0 / ((n - 2) * unit_sphere_area(n))
    _, q_inf, _ = _charge_function(n, density, 1)
    return q_inf / (n - 2)


def shell_mass(n, density=None):
    """Total mass of every member of the shell sequence: 2a."""
    return 2.0 * shell_tail_coefficient(n, density)


def shell_metric(n, i, density=None, radial_q=80, **kw):
    """MetricSpec of the i-th shell metric u_i^{4/(n-2)} delta."""
    if density is None:
        density = default_shell_density(n)
    profile = solve_shell_potential(n, i, density=density, radial_q=radial_q)
    return MetricSpec(ConformalFamily(
        n, profile, "ShellConformal", {"i": i},
        radial_breakpoints=(i * density.lo, i * density.hi),
    ), **kw)


def shell_matter_coupling(n, i, density=None, radial_q=96):
    """c_n int R dV_g = (2 / ((n-2) omega_{n-1})) int u_i rho_i dx.

    Uses the conformal transformation of scalar curvature for harmonic-plus-
    source factors; reduces to a 1-d integral over the support."""
    if density is None:
        density = default_shell_density(n)
    profile = solve_shell_potential(n, i, density=density, radial_q=radial_q)
    lo, hi = i * density.lo, i * density.hi
    xg, wg = np.polynomial.legendre.leggauss(radial_q)
    s = 0.5 * (hi - lo) * (xg + 1.0) + lo
    w = 0.5 * (hi - lo) * wg
    rho_vals = i ** (-n) * density.rho(s / i)
    u_vals = profile.u(s)
    integral = unit_sphere_area(n) * float(np.dot(w, s ** (n - 1) * u_vals * rho_vals))
    return 2.0 / ((n - 2) * unit_sphere_area(n)) * integral
