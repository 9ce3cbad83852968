"""Coordinate curvature formulas and finite-difference stencils.

All routines are batched: metric arrays have shape (N, d, d), first
derivatives (N, d, d, d) with dg[:, k, i, j] = d_k g_ij, and second
derivatives (N, d, d, d, d) with d2g[:, k, l, i, j] = d_k d_l g_ij.
scalar_curvature is the one entry point for R; metrics.metric_jet supplies
its arguments.
"""

import numpy as np

__all__ = [
    "christoffel",
    "ricci_tensor",
    "scalar_curvature",
    "fd_metric_derivatives",
]


def _lowered_christoffel(dg):
    """Gamma_lij = 0.5 (d_i g_lj + d_j g_il - d_l g_ij), indexed [.., l, i, j]."""
    return 0.5 * (np.einsum("nilj->nlij", dg) + np.einsum("njil->nlij", dg) - dg)


def _raise_first(ginv, t):
    """g^{kl} t_l... : raise the first index of the batched tensor t."""
    N, d = ginv.shape[:2]
    return (ginv @ t.reshape(N, d, -1)).reshape(t.shape)


def _christoffels(ginv, dg):
    """(Gamma_lij, Gamma^k_ij): the lowered symbols and their raised form."""
    low = _lowered_christoffel(dg)
    return low, _raise_first(ginv, low)


def christoffel(ginv, dg):
    """Christoffel symbols Gamma^k_ij = g^{kl} Gamma_lij.

    Returns (N, d, d, d) indexed [.., k, i, j].
    """
    return _christoffels(ginv, dg)[1]


def ricci_tensor(g, dg, d2g):
    """Ricci tensor R_jk = d_i Gamma^i_jk - d_j Gamma^i_ik
    + Gamma^i_ip Gamma^p_jk - Gamma^i_kp Gamma^p_ij.

    With M_j = g^{-1} d_j g, Gamma^i_ik = d_k log sqrt(det g) = tr M_k / 2
    and d_i g^{il} = -(g^{-1} w)^l, w_a = sum_i (M_i)^i_a, this is

        R_jk = 0.5 g^{il} (d_i d_j g_lk + d_i d_k g_lj - d_i d_l g_jk)
               - 0.5 g^{ab} d_j d_k g_ab + 0.5 tr(M_j M_k)
               + u^l Gamma_ljk - Gamma^i_kp Gamma^p_ij

    with u = g^{-1}(tr M / 2 - w).  g^{-1} is contracted into d2g directly,
    so no other array of d2g's size is built.
    """
    ginv = np.linalg.inv(g)
    return _ricci_from_inverse(ginv, dg, d2g, *_christoffels(ginv, dg))


def _ricci_from_inverse(ginv, dg, d2g, low, gamma):
    """ricci_tensor given g^{-1} and _christoffels(ginv, dg), for callers
    that already hold them."""
    N, d = ginv.shape[:2]
    m = ginv[:, None] @ dg
    vec = ginv.reshape(N, 1, d * d)
    d2 = d2g.reshape(N, d * d, d * d)
    # g^{il} d_j d_i g_lk (d_i d_j = d_j d_i), g^{il} d_i d_l g_jk, g^{ab} d_j d_k g_ab
    p = (vec[:, None] @ d2g.reshape(N, d, d * d, d))[:, :, 0]
    laplace = (vec @ d2).reshape(N, d, d)
    hess_log_det = (d2 @ vec.transpose(0, 2, 1)).reshape(N, d, d)
    u = ginv @ (0.5 * np.einsum("npaa->np", m) - np.einsum("niia->na", m))[:, :, None]
    # t[k, (i, p)] = Gamma^i_kp, and t read as [(i, p), j] is Gamma^p_ij
    t = np.swapaxes(gamma, 1, 2).reshape(N, d, d * d)
    ric = (
        0.5 * (p + np.swapaxes(p, 1, 2) - laplace - hess_log_det)
        + 0.5 * np.einsum("njad,nkda->njk", m, m)
        + (np.swapaxes(u, 1, 2) @ low.reshape(N, d, d * d)).reshape(N, d, d)
        - t @ t.reshape(N, d * d, d)
    )
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def scalar_curvature(g, dg, d2g):
    """Scalar curvature R = g^{jk} R_jk.  Returns (N,)."""
    ginv = np.linalg.inv(g)
    ric = _ricci_from_inverse(ginv, dg, d2g, *_christoffels(ginv, dg))
    return np.einsum("njk,njk->n", ginv, ric)


def fd_metric_derivatives(fn, x, h):
    """A matrix field with its finite-difference first and second derivatives.

    fn maps (N, d) -> (N, d, d).  Returns (f0, dg, d2g): f0 = fn(x), the
    stencil's centre, and the derivatives in the layout described in the
    module docstring, from 3-point central stencils (second order in h) and
    their composition for the mixed second derivatives.
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
    return f0, dg, d2g
