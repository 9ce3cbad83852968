"""Reference Gauss curvature of a conical surface for the tests, from the
general coordinate scalar curvature.

afmass.cone.total_gauss_curvature integrates the closed form K = -f''/f;
this version builds the metric dr^2 + f^2 dtheta^2 of the (r, theta) chart
with its analytic derivatives and takes K = R / 2, as an independent check.
"""

import numpy as np

from afmass.curvature import scalar_curvature


def reference_gauss_curvature(surface, r):
    r = np.atleast_1d(np.asarray(r, dtype=float))
    f, df, d2f = surface.jet(r, 2)
    N = r.shape[0]
    g = np.zeros((N, 2, 2))
    g[:, 0, 0] = 1.0
    g[:, 1, 1] = f ** 2
    dg = np.zeros((N, 2, 2, 2))
    dg[:, 0, 1, 1] = 2.0 * f * df
    d2g = np.zeros((N, 2, 2, 2, 2))
    d2g[:, 0, 0, 1, 1] = 2.0 * (df ** 2 + f * d2f)
    return 0.5 * scalar_curvature(g, dg, d2g)
