"""Finite-difference reference stencils for the tests.

The library differentiates metrics with the second-order stencils of
afmass.curvature.fd_metric_derivatives.  fd2_metric_derivatives is the same
stencil written as a plain loop over freshly allocated temporaries, an
oracle the library's stencil must match bit for bit.  The fourth-order
stencils serve as an independent check of its curvature formulas on
metrics given only as functions of coordinates.
"""

import numpy as np

from afmass.curvature import scalar_curvature


def fd2_metric_derivatives(fn, x, h):
    """(f0, dg, d2g) of fn: (N, d) -> (N, d, d) from 3-point central
    stencils and their composition, with the same metric evaluations in the
    same order and the same arithmetic as
    afmass.curvature.fd_metric_derivatives.  h is one step or one step per
    point (N,)."""
    x = np.asarray(x, dtype=float)
    N, d = x.shape
    h = np.asarray(h, dtype=float)
    hm = np.broadcast_to(h.reshape(h.shape + (1, 1)), (N, d, d))
    two_h, h_sq = 2.0 * hm, hm ** 2
    four_h_sq = 4.0 * h_sq
    f0 = fn(x)
    dg = np.empty((N, d, d, d))
    d2g = np.empty((N, d, d, d, d))

    def shift(k, a, m=None, b=0.0):
        y = x.copy()
        y[:, k] += a * h
        if m is not None:
            y[:, m] += b * h
        return fn(y)

    plus = [shift(k, 1.0) for k in range(d)]
    minus = [shift(k, -1.0) for k in range(d)]
    for k in range(d):
        dg[:, k] = (plus[k] - minus[k]) / two_h
        d2g[:, k, k] = (plus[k] - 2.0 * f0 + minus[k]) / h_sq
    for k in range(d):
        for m in range(k + 1, d):
            mixed = (
                shift(k, 1.0, m, 1.0)
                - shift(k, 1.0, m, -1.0)
                - shift(k, -1.0, m, 1.0)
                + shift(k, -1.0, m, -1.0)
            ) / four_h_sq
            d2g[:, k, m] = mixed
            d2g[:, m, k] = mixed
    return f0, dg, d2g


# 4th-order central stencil for first derivatives
D1_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
D1_COEFFS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def fd4_metric_derivatives(fn, x, h):
    """A matrix field fn: (N, d) -> (N, d, d) with its first and second
    derivatives, (f0, dg, d2g) with f0 = fn(x), from 5-point stencils (first
    derivatives) and their composition (mixed second derivatives), in the
    layout and return order of afmass.curvature.fd_metric_derivatives."""
    x = np.asarray(x, dtype=float)
    N, d = x.shape
    f0 = fn(x)
    dg = np.empty((N, d, d, d))
    d2g = np.empty((N, d, d, d, d))

    def shift(k, a, m=None, b=0.0):
        y = x.copy()
        y[:, k] += a * h
        if m is not None:
            y[:, m] += b * h
        return fn(y)

    vals = {(k, a): shift(k, a) for k in range(d) for a in D1_OFFSETS}
    for k in range(d):
        dg[:, k] = sum(c * vals[(k, a)] for a, c in zip(D1_OFFSETS, D1_COEFFS)) / h
        d2g[:, k, k] = (
            -vals[(k, 2.0)]
            + 16.0 * vals[(k, 1.0)]
            - 30.0 * f0
            + 16.0 * vals[(k, -1.0)]
            - vals[(k, -2.0)]
        ) / (12.0 * h ** 2)
    for k in range(d):
        for m in range(k + 1, d):
            mixed = 0.0
            for a, ca in zip(D1_OFFSETS, D1_COEFFS):
                for b, cb in zip(D1_OFFSETS, D1_COEFFS):
                    mixed = mixed + ca * cb * shift(k, a, m, b)
            mixed = mixed / h ** 2
            d2g[:, k, m] = mixed
            d2g[:, m, k] = mixed
    return f0, dg, d2g


def curvature_of_metric_fn(fn, x, h):
    """Scalar curvature of a metric given only as a function of coordinates,
    from 4th-order finite differences with step h.  Returns (N,)."""
    return scalar_curvature(*fd4_metric_derivatives(fn, x, h))
