"""Coordinate curvature formulas and finite-difference stencils.

All routines are batched: metric arrays have shape (N, d, d), first
derivatives (N, d, d, d) with dg[:, k, i, j] = d_k g_ij, and second
derivatives (N, d, d, d, d) with d2g[:, k, l, i, j] = d_k d_l g_ij.
"""

import numpy as np

__all__ = [
    "christoffel",
    "ricci_tensor",
    "scalar_curvature",
    "fd_metric_derivatives",
]


def christoffel(ginv, dg):
    """Christoffel symbols Gamma^k_ij = 0.5 g^{kl}(d_i g_lj + d_j g_il - d_l g_ij).

    Returns (N, d, d, d) indexed [.., k, i, j].
    """
    bracket = (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njil->nlij", dg)
        - np.einsum("nlij->nlij", dg)
    )
    return 0.5 * np.einsum("nkl,nlij->nkij", ginv, bracket)


def ricci_tensor(g, dg, d2g):
    """Ricci tensor from the coordinate formula.

    R_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_ip Gamma^p_jk
           - Gamma^i_kp Gamma^p_ij.
    """
    ginv = np.linalg.inv(g)
    gamma = christoffel(ginv, dg)
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("nka,nmab,nbl->nmkl", ginv, dg, ginv)
    # d_m Gamma^k_ij
    bracket = (
        np.einsum("nmilj->nmlij", d2g)
        + np.einsum("nmjil->nmlij", d2g)
        - np.einsum("nmlij->nmlij", d2g)
    )
    dgamma = 0.5 * (
        np.einsum("nmkl,nlij->nmkij", dginv, 2.0 * _sym_bracket(dg))
        + np.einsum("nkl,nmlij->nmkij", ginv, bracket)
    )
    term1 = np.einsum("niijk->njk", dgamma)
    term2 = np.einsum("njiik->njk", dgamma)
    term3 = np.einsum("niip,npjk->njk", gamma, gamma)
    term4 = np.einsum("nikp,npij->njk", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def _sym_bracket(dg):
    return 0.5 * (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njil->nlij", dg)
        - np.einsum("nlij->nlij", dg)
    )


def scalar_curvature(g, dg, d2g):
    """Scalar curvature R = g^{jk} R_jk.  Returns (N,)."""
    ric = ricci_tensor(g, dg, d2g)
    return np.einsum("njk,njk->n", np.linalg.inv(g), ric)


def fd_metric_derivatives(fn, x, h):
    """Finite-difference first and second derivatives of a matrix field.

    fn maps (N, d) -> (N, d, d).  Returns (dg, d2g) with the layout described
    in the module docstring, from 3-point central stencils (second order in
    h) and their composition for the mixed second derivatives.
    """
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

    plus = [shift(k, 1.0) for k in range(d)]
    minus = [shift(k, -1.0) for k in range(d)]
    for k in range(d):
        dg[:, k] = (plus[k] - minus[k]) / (2.0 * h)
        d2g[:, k, k] = (plus[k] - 2.0 * f0 + minus[k]) / h ** 2
    for k in range(d):
        for m in range(k + 1, d):
            mixed = (
                shift(k, 1.0, m, 1.0)
                - shift(k, 1.0, m, -1.0)
                - shift(k, -1.0, m, 1.0)
                + shift(k, -1.0, m, -1.0)
            ) / (4.0 * h ** 2)
            d2g[:, k, m] = mixed
            d2g[:, m, k] = mixed
    return dg, d2g
