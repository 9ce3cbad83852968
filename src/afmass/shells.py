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

Every radial integral runs on one 16-node Gauss-Legendre rule, exact to
degree 31.  On the support the default rho is a polynomial of degree 6, so
the integrands s^{n-1} rho and s rho have degree at most n + 5 and the rule
integrates them exactly.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import legendre_rule, unit_sphere_area
from .metrics import ConformalFamily, MetricSpec, RadialProfile

__all__ = [
    "ShellDensity",
    "default_shell_density",
    "solve_shell_potential",
    "shell_metric",
    "shell_tail_coefficient",
    "shell_mass",
    "shell_matter_coupling",
]

# support [lo, hi] of the default density; member i is supported in i [lo, hi]
_SUPPORT = (0.5, 1.0)
# Gauss-Legendre nodes and weights on [-1, 1] for every radial integral
_XG, _WG = legendre_rule(16)


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
    16-node rule normalizes it exactly."""

    def bump(s):
        s = np.asarray(s, dtype=float)
        t = 1.0 - (4.0 * (s - 0.75)) ** 2
        out = np.where((s > 0.5) & (s < 1.0), np.maximum(t, 0.0) ** 3, 0.0)
        return out

    s = 0.25 * (_XG + 1.0) + 0.5
    raw = 0.25 * float(np.dot(_WG, s ** (n - 1) * bump(s)))
    norm = unit_sphere_area(n) * raw

    def rho(s):
        return bump(s) / norm

    return ShellDensity(rho=rho, lo=_SUPPORT[0], hi=_SUPPORT[1])


def _charge_function(n, density, i):
    """Q_i(r) = int_0^r s^{n-1} rho_i(s) ds, one Gauss panel per radius.

    rho_i(s) = i^{-n} rho(s / i) is supported in [i*lo, i*hi]; Q_i is 0
    before the support and constant after it, so each panel runs over
    [lo, clip(r, lo, hi)].  Returns Q, the limiting value
    Q_i(inf) = total / omega_{n-1}, and panel(a, b, p): the sums
    int_a^b s^p rho_i(s) ds with one 16-node panel per pair of bounds (a and
    b broadcast against each other).  Inside the support the default rho_i
    is a polynomial of degree 6, so the panels of s^{n-1} rho_i and s rho_i
    (degree <= n + 5) are exact."""
    lo, hi = i * density.lo, i * density.hi

    def panel(a, b, p):
        a = np.asarray(a, dtype=float)
        half = np.asarray(0.5 * (b - a))
        s = half[..., None] * (_XG + 1.0) + a[..., None]
        return half * ((s ** p * i ** (-n) * density.rho(s / i)) @ _WG)

    def Q(r):
        return panel(lo, np.clip(np.asarray(r, dtype=float), lo, hi), n - 1)

    return Q, float(Q(hi)), panel


def solve_shell_potential(n, i):
    """RadialProfile u_i = 1 + v_i with -Delta v_i = rho_i, v_i(inf) = 0.

    Newton's shell theorem: integrating v(r) = int_r^inf s^{1-n} Q(s) ds by
    parts gives

        v(r) = (r^{2-n} Q(r) + int_r^inf s rho_i(s) ds) / (n - 2),

    two exact 16-node panels per radius, over [lo, t] and [t, hi] with
    t = clip(r, lo, hi).  Past the support this is the exact power tail
    Q_inf r^{2-n} / (n-2); inside the cavity Q = 0 and v is constant, and
    max(r, lo) in place of r keeps 0 * inf out of it (also in v' and v'').
    v >= 0 for the nonnegative density, so u = 1 + v >= 1."""
    if n < 3:
        raise ValueError("need n >= 3 for a decaying potential")
    density = default_shell_density(n)
    lo, hi = i * density.lo, i * density.hi
    Q, q_inf, panel = _charge_function(n, density, i)
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

    return RadialProfile(
        u=lambda r: 1.0 + v(np.asarray(r, dtype=float)),
        du=dv,
        d2u=d2v,
        tail_coefficient=tail,
        name=f"shell(i={i})",
    )


def shell_tail_coefficient(n):
    """Tail coefficient a with v_i = a r^{2-n} past the support.

    Independent of i: the scaling preserves the total integral, so
    a = 1 / ((n-2) omega_{n-1}) for the unit-mass density."""
    return 1.0 / ((n - 2) * unit_sphere_area(n))


def shell_mass(n):
    """Total mass of every member of the shell sequence: 2a."""
    return 2.0 * shell_tail_coefficient(n)


def shell_metric(n, i, **kw):
    """MetricSpec of the i-th shell metric u_i^{4/(n-2)} delta."""
    profile = solve_shell_potential(n, i)
    return MetricSpec(ConformalFamily(
        n, profile, "ShellConformal", {"i": i},
        radial_breakpoints=(i * _SUPPORT[0], i * _SUPPORT[1]),
    ), **kw)


def shell_matter_coupling(n, i):
    """c_n int R dV_g = (2 / ((n-2) omega_{n-1})) int u_i rho_i dx.

    Uses the conformal transformation of scalar curvature for harmonic-plus-
    source factors; reduces to a 1-d integral over the support, on the
    16-node rule (u_i is smooth there, though not a polynomial)."""
    density = default_shell_density(n)
    profile = solve_shell_potential(n, i)
    lo, hi = i * density.lo, i * density.hi
    s = 0.5 * (hi - lo) * (_XG + 1.0) + lo
    w = 0.5 * (hi - lo) * _WG
    rho_vals = i ** (-n) * density.rho(s / i)
    u_vals = profile.u(s)
    integral = unit_sphere_area(n) * float(np.dot(w, s ** (n - 1) * u_vals * rho_vals))
    return 2.0 / ((n - 2) * unit_sphere_area(n)) * integral
