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
integrates them exactly.  The panels run only on the radii strictly inside
the support: in the cavity and past it Q and int_r^inf s rho_i(s) ds are
the constants 0, Q(infinity) and their values at the support's ends,
computed once per profile, and rho_i is 0.
"""

import math
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


def _on_support(r, lo, hi, below, above, inside):
    """below at the radii r <= lo, above at r >= hi, and inside(t) at the
    radii t strictly between (and at NaN), evaluated on those rows alone."""
    r = np.asarray(r, dtype=float)
    cavity = r <= lo
    out = np.where(cavity, below, above)
    mid = ~(cavity | (r >= hi))
    if mid.any():
        out[mid] = inside(r[mid])
    return out


def _charge_function(n, density, i):
    """Q_i(r) = int_0^r s^{n-1} rho_i(s) ds and T_i(r) = int_t^hi s rho_i(s) ds
    with t = clip(r, lo, hi), one Gauss panel per radius inside the support.

    rho_i(s) = i^{-n} rho(s / i) is supported in [lo, hi] = i [lo, hi] of the
    density, so Q_i reads 0 for r <= lo and Q_i(inf) = total / omega_{n-1}
    for r >= hi, and T_i reads T_i(lo) for r <= lo and 0 for r >= hi; both
    constants are one panel each, per profile.  Only the radii strictly
    inside the support run a 16-node panel, over [lo, r] for Q_i and [r, hi]
    for T_i, and each panel is summed on its own (one dot per row), so a
    radius reads the same value whatever other radii share its call.
    Inside the support the default rho_i is a polynomial of degree 6, so the
    panels of s^{n-1} rho_i and s rho_i (degree <= n + 5) are exact.
    Returns Q, Q_i(inf) and T.  Raises OverflowError where s^{n-1}
    overflows on the support, whatever the warnings filter."""
    lo, hi = i * density.lo, i * density.hi
    # s^p rho_i (p = 1 or n - 1) is largest near hi; in Python floats the
    # power reaches inf without a numpy warning
    if not math.isfinite(math.prod([float(hi)] * (n - 1))):
        raise OverflowError(f"shell i = {i:g}: s^{n - 1} overflows on its support")

    def panel(a, b, p):
        # int_a^b s^p rho_i(s) ds, one 16-node panel per pair of bounds; a
        # (1, 16) @ (16, 1) product per row is one dot product each, where
        # one (N, 16) @ (16,) product would sum a row by its place in a block
        a = np.asarray(a, dtype=float)
        half = np.asarray(0.5 * (b - a))
        s = half[..., None] * (_XG + 1.0) + a[..., None]
        f = s ** p * i ** (-n) * density.rho(s / i)
        return half * (f[..., None, :] @ _WG[:, None])[..., 0, 0]

    q_inf = float(panel(lo, hi, n - 1))
    t_lo = float(panel(lo, hi, 1))

    def Q(r):
        return _on_support(r, lo, hi, 0.0, q_inf, lambda t: panel(lo, t, n - 1))

    def T(r):
        return _on_support(r, lo, hi, t_lo, 0.0, lambda t: panel(t, hi, 1))

    return Q, q_inf, T


def solve_shell_potential(n, i):
    """RadialProfile u_i = 1 + v_i with -Delta v_i = rho_i, v_i(inf) = 0.

    Newton's shell theorem: integrating v(r) = int_r^inf s^{1-n} Q(s) ds by
    parts gives

        v(r) = (r^{2-n} Q(r) + T(r)) / (n - 2),  T(r) = int_r^inf s rho_i(s) ds,

    with Q and T from _charge_function: a panel each inside the support, a
    constant in the cavity and past the support.  Past the support this is
    the exact power tail Q_inf r^{2-n} / (n-2); inside the cavity Q = 0 and
    v is constant, and max(r, lo) in place of r keeps 0 * inf out of it
    (also in v' and v'').  rho_i in v'' is 0 off the support and evaluated
    only on it.  v >= 0 for the nonnegative density, so u = 1 + v >= 1.

    u, u' and u'' are each one term of q = Q(r) (u also of T(r), u'' of
    rho_i(r)); the profile's jet evaluates Q once for all its orders and
    writes each order once."""
    if n < 3:
        raise ValueError("need n >= 3 for a decaying potential")
    density = default_shell_density(n)
    lo, hi = i * density.lo, i * density.hi
    Q, q_inf, T = _charge_function(n, density, i)
    tail = q_inf / (n - 2)

    def jet(r, order):
        r = np.asarray(r, dtype=float)
        q = Q(r)
        rr = np.maximum(r, lo)
        out = [1.0 + (rr ** (2 - n) * q + T(r)) / (n - 2)]
        if order >= 1:
            out.append(-rr ** (1 - n) * q)
        if order == 2:
            rho_vals = _on_support(
                r, lo, hi, 0.0, 0.0, lambda t: i ** (-n) * density.rho(t / i))
            out.append((n - 1) * rr ** (-n) * q - rho_vals)
        return out

    return RadialProfile(jet, tail_coefficient=tail, name=f"shell(i={i})")


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
