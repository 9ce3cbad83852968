"""Coordinate curvature formulas and finite-difference stencils.

All routines are batched: metric arrays have shape (N, d, d), first
derivatives (N, d, d, d) with dg[:, k, i, j] = d_k g_ij, and second
derivatives (N, d, d, d, d) with d2g[:, k, l, i, j] = d_k d_l g_ij.
fd_metric_derivatives returns dg and d2g in this layout as transposed views
of direction-major buffers, (d, N, d, d) and (d, d, N, d, d); like every
jet they are fresh arrays that the caller owns.  It calls the metric once
at the stencil's centre and then on its 2 d^2 shifted copies of the points,
stacked into calls of up to _ROWS rows (one copy a call once a copy alone
has _ROWS rows), so the metric must act row by row.
scalar_curvature is the one public entry point; metrics.metric_jet
supplies its arguments.
"""

import numpy as np

# rows per call of the stencil's shifted evaluations (fd_metric_derivatives).
# A Family.metric call has a fixed cost of 60-120 us, the cost of 130-630
# rows, and its cost per row rises past a few thousand rows (AS at n = 5 and
# a translated shell at n = 3, measured on a 2-core x86 host)
_ROWS = 1024

__all__ = [
    "scalar_curvature",
    "fd_metric_derivatives",
]


def _lowered_christoffel(dg):
    """Gamma_lij = 0.5 (d_i g_lj + d_j g_il - d_l g_ij), indexed [.., l, i, j]."""
    return 0.5 * (np.einsum("nilj->nlij", dg) + np.einsum("njil->nlij", dg) - dg)


def _christoffels(ginv, dg):
    """(Gamma_lij, Gamma^k_ij): the lowered symbols and their raised form
    Gamma^k_ij = g^{kl} Gamma_lij, both indexed [.., k or l, i, j]."""
    low = _lowered_christoffel(dg)
    N, d = ginv.shape[:2]
    return low, (ginv @ low.reshape(N, d, -1)).reshape(low.shape)


def _ricci_from_inverse(ginv, dg, d2g, low, gamma):
    """Ricci tensor R_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_ip Gamma^p_jk
    - Gamma^i_kp Gamma^p_ij from g^{-1} and (low, gamma) = _christoffels(ginv, dg).

    With M_j = g^{-1} d_j g, Gamma^i_ik = d_k log sqrt(det g) = tr M_k / 2
    and d_i g^{il} = -(g^{-1} w)^l, w_a = sum_i (M_i)^i_a, this is

        R_jk = 0.5 g^{il} (d_i d_j g_lk + d_i d_k g_lj - d_i d_l g_jk)
               - 0.5 g^{ab} d_j d_k g_ab + 0.5 tr(M_j M_k)
               + u^l Gamma_ljk - Gamma^i_kp Gamma^p_ij

    with u = g^{-1}(tr M / 2 - w).  g^{-1} is contracted into d2g directly,
    so no other array of d2g's size is built.
    """
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

    fn maps (N, d) -> (N, d, d) row by row: row i of its value depends on
    row i of its argument alone, bit for bit, whatever the other rows are.
    Returns (f0, dg, d2g): f0 = fn(x), the stencil's centre, and the
    derivatives in the layout described in the module docstring, from
    3-point central stencils (second order in h) and their composition for
    the mixed second derivatives.  h is one step or one step per point (N,).

    fn is called once at the centre, alone, and then on the 2 d^2 shifted
    copies of x, in the order x + h e_k, x - h e_k (k = 0..d-1) and the
    four x +- h e_k +- h e_l of each pair k < l, stacked G = max(1,
    _ROWS // N) copies a call: one (G N, d) array in, one (G N, d, d)
    array out.  Each copy's slice goes through the same
    arithmetic in the same order whatever the block size, so the blocks
    change no bit of the result, and a stencil of N >= _ROWS points makes
    one call per copy.

    Each difference is written once into a contiguous direction-major buffer
    (dg_buf[k] = d_k g, d2g_buf[k, l] = d_k d_l g, each (N, d, d)); dg and
    d2g are transposed views of these buffers, fresh arrays that the caller
    owns.
    """
    x = np.asarray(x, dtype=float)
    N, d = x.shape
    h = np.asarray(h, dtype=float)
    # the divisors laid out like the (N, d, d) matrices they divide: a
    # broadcast (N, 1, 1) divisor takes about twice as long as a full one
    hm = np.broadcast_to(h.reshape(h.shape + (1, 1)), (N, d, d))
    two_h, h_sq = 2.0 * hm, hm ** 2
    four_h_sq = 4.0 * h_sq
    f0 = fn(x)
    two_f0 = 2.0 * f0
    dg_buf = np.empty((d, N, d, d))
    d2g_buf = np.empty((d, d, N, d, d))
    # each shift is ((k, a),) or ((k, a), (m, b)): x moved by a h along k
    # (and b h along m)
    shifts = [((k, a),) for a in (1.0, -1.0) for k in range(d)] + [
        ((k, a), (m, b)) for k in range(d) for m in range(k + 1, d)
        for a in (1.0, -1.0) for b in (1.0, -1.0)
    ]
    per_call = max(1, _ROWS // max(N, 1))
    y = np.empty((min(per_call, len(shifts)), N, d))
    for start in range(0, len(shifts), per_call):
        block = shifts[start:start + per_call]
        ys = y[:len(block)]
        ys[...] = x
        for yi, steps in zip(ys, block):
            for k, a in steps:
                yi[:, k] = x[:, k] + a * h
        values = fn(ys.reshape(-1, d)).reshape(len(block), N, d, d)
        for f, ((k, a), *other) in zip(values, block):
            if other:
                # d2g_buf[k, m] = (f(++) - f(+-) - f(-+) + f(--)) / (4 h^2)
                (m, b), = other
                mixed = d2g_buf[k, m]
                if a > 0.0 and b > 0.0:
                    mixed[...] = f
                elif a > 0.0 or b > 0.0:
                    mixed -= f
                else:
                    mixed += f
                    mixed /= four_h_sq
                    d2g_buf[m, k] = mixed
            elif a > 0.0:
                # fn(x + h e_k) waits in d2g_buf[k, k] until fn(x - h e_k) is known
                d2g_buf[k, k] = f
            else:
                plus = d2g_buf[k, k]
                np.subtract(plus, f, out=dg_buf[k])
                dg_buf[k] /= two_h
                plus -= two_f0
                plus += f
                plus /= h_sq
    return f0, dg_buf.transpose(1, 0, 2, 3), d2g_buf.transpose(2, 0, 1, 3, 4)
