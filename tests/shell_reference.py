"""Nested-quadrature reference for the shell potential, for the tests.

The library evaluates v_i(r) by Newton's shell theorem, two broadcast Gauss
panels per radius.  This module keeps the direct route as an independent
check: Q(r) = int_0^r s^{n-1} rho_i(s) ds by one Gauss panel per radius, and
v(r) = v(hi) + int_r^hi s^{1-n} Q(s) ds by a Gauss panel whose every node
evaluates Q again, one radius at a time.
"""

import numpy as np


def reference_charge_function(n, density, i, radial_q=80):
    """Q_i(r) point by point, and Q_i(inf) from the cumulative node sums."""
    lo, hi = i * density.lo, i * density.hi
    xg, wg = np.polynomial.legendre.leggauss(radial_q)
    nodes = 0.5 * (hi - lo) * (xg + 1.0) + lo
    weights = 0.5 * (hi - lo) * wg
    increments = weights * nodes ** (n - 1) * i ** (-n) * density.rho(nodes / i)
    q_inf = float(np.cumsum(increments)[-1])

    def Q(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        below = r <= lo
        above = r >= hi
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = q_inf
        vals = []
        for t in r[mid]:
            s = 0.5 * (t - lo) * (xg + 1.0) + lo
            w = 0.5 * (t - lo) * wg
            vals.append(float(np.dot(w, s ** (n - 1) * i ** (-n) * density.rho(s / i))))
        out[mid] = vals
        return out

    return Q, q_inf


def reference_potential(n, i, density, radial_q=80):
    """(u, du, d2u) of u_i = 1 + v_i by the nested quadrature."""
    lo, hi = i * density.lo, i * density.hi
    Q, q_inf = reference_charge_function(n, density, i, radial_q=radial_q)
    tail = q_inf / (n - 2)
    xg, wg = np.polynomial.legendre.leggauss(radial_q)

    def v(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        above = r >= hi
        out[above] = tail * r[above] ** (2 - n)
        vals = []
        # Q vanishes below the support, so v is constant inside the cavity
        for t in r[~above]:
            a = min(max(t, lo), hi)
            s = 0.5 * (hi - a) * (xg + 1.0) + a
            w = 0.5 * (hi - a) * wg
            vals.append(tail * hi ** (2 - n) + float(np.dot(w, s ** (1 - n) * Q(s))))
        out[~above] = vals
        return out

    def du(r):
        r = np.asarray(r, dtype=float)
        return -r ** (1 - n) * Q(r)

    def d2u(r):
        r = np.asarray(r, dtype=float)
        return (n - 1) * r ** (-n) * Q(r) - i ** (-n) * density.rho(r / i)

    return (lambda r: 1.0 + v(r)), du, d2u
