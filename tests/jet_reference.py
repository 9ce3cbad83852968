"""Reference jets for the tests, built with full-size temporaries.

The families in afmass.metrics write f delta_ij onto a zeroed diagonal and
add, scale and shift their base's jet in place; this version forms
f delta_ij with an einsum against the identity and builds b + c w B and
d / lambda^k as new arrays, as an independent check of the in-place jets.
mass_vector_reference takes the mass vector V_j = d_i g_ij - d_j g_ii and
its divergence as traces of that dense jet, the oracle of Family.mass_vector
(its dense-jet default and the closed forms).
"""

import numpy as np

from afmass.metrics import (
    AsymptoticallySchwarzschildFamily,
    ConformalFamily,
    ScaledFamily,
    TranslatedFamily,
)


def jet_reference(family, x, order):
    """[g, dg, d2g][:order + 1] of family at the points x (N, n)."""
    if isinstance(family, ConformalFamily):
        return _conformal(family, x, order)
    if isinstance(family, AsymptoticallySchwarzschildFamily):
        return _asymptotically_schwarzschild(family, x, order)
    if isinstance(family, ScaledFamily):
        jet = jet_reference(family.base_spec.family, x / family.lam, order)
        return [d / family.lam ** k for k, d in enumerate(jet)]
    if isinstance(family, TranslatedFamily):
        return jet_reference(family.base_spec.family, x + family.offset, order)
    return family.jet(x, order)


def mass_vector_reference(family, x, order):
    """[V, div V][:order] of family at x, traced from the dense jet with
    np.trace: V_j = d_i g_ij - d_j g_ii, div V = d_i d_j g_ij - d_j d_j g_ii."""
    jet = jet_reference(family, x, order)
    dg = jet[1]
    out = [np.trace(dg, axis1=1, axis2=2) - np.trace(dg, axis1=2, axis2=3)]
    if order == 2:
        N, n = x.shape
        d2g = jet[2]
        out.append(
            np.trace(d2g.reshape(N, n * n, n * n), axis1=1, axis2=2)
            - np.trace(np.trace(d2g, axis1=3, axis2=4), axis1=1, axis2=2)
        )
    return out


def _conformal(family, x, order):
    # g = U^e delta, e = 4/(n-2), by the chain rule through one factor jet
    jet = family.field.jet(x, order)
    u = jet[0]
    e = 4.0 / (family.n - 2)
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
    eye = np.eye(family.n)
    return [np.einsum("n...,ij->n...ij", f, eye) for f in F]


def _asymptotically_schwarzschild(family, x, order):
    # the base's jet plus c B times the jet of w = (1 + |x|^2)^{-(n-1)/2}
    p = -(family.n - 1) / 2.0
    s = 1.0 + np.einsum("ni,ni->n", x, x)
    w = [s ** p]
    if order >= 1:
        w.append((2.0 * p * s ** (p - 1.0))[:, None] * x)
    if order == 2:
        w.append(
            (2.0 * p * s ** (p - 1.0))[:, None, None] * np.eye(family.n)
            + (4.0 * p * (p - 1.0) * s ** (p - 2.0))[:, None, None]
            * np.einsum("nk,nl->nkl", x, x)
        )
    return [
        b + family.c * wk[..., None, None] * family.B
        for b, wk in zip(jet_reference(family.base, x, order), w)
    ]
