"""Reference Ricci tensor for the tests, built from the full derivative of
the Christoffel symbols.

afmass.curvature._ricci_from_inverse contracts g^{-1} into d2g directly
and never forms d_m Gamma^k_ij; this version does, term by term, as an
independent check of that contraction.
"""

import numpy as np


def _lowered(dg):
    # 0.5 (d_i g_lj + d_j g_il - d_l g_ij), indexed [.., l, i, j]
    return 0.5 * (
        np.einsum("nilj->nlij", dg)
        + np.einsum("njil->nlij", dg)
        - np.einsum("nlij->nlij", dg)
    )


def ricci_reference(g, dg, d2g):
    """R_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_ip Gamma^p_jk
    - Gamma^i_kp Gamma^p_ij, with d_m Gamma^k_ij formed explicitly."""
    ginv = np.linalg.inv(g)
    gamma = np.einsum("nkl,nlij->nkij", ginv, _lowered(dg))
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("nka,nmab,nbl->nmkl", ginv, dg, ginv)
    bracket = (
        np.einsum("nmilj->nmlij", d2g)
        + np.einsum("nmjil->nmlij", d2g)
        - np.einsum("nmlij->nmlij", d2g)
    )
    dgamma = 0.5 * (
        np.einsum("nmkl,nlij->nmkij", dginv, 2.0 * _lowered(dg))
        + np.einsum("nkl,nmlij->nmkij", ginv, bracket)
    )
    term1 = np.einsum("niijk->njk", dgamma)
    term2 = np.einsum("njiik->njk", dgamma)
    term3 = np.einsum("niip,npjk->njk", gamma, gamma)
    term4 = np.einsum("nikp,npij->njk", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))
