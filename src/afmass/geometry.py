"""Spherical chart and quadrature utilities.

Coordinate spheres S_r = {|x| = r} are parameterized by the iterated
sine/cosine chart

    x^1 = r cos(phi^1)
    x^2 = r sin(phi^1) cos(phi^2)
    ...
    x^n = r sin(phi^1) ... sin(phi^{n-1}),

with phi^1..phi^{n-2} in (0, pi) and phi^{n-1} in [0, 2pi).  Quadrature is a
tensor product: Gauss-Legendre nodes in the polar angles, trapezoid in the
periodic angle.  Nodes never sit on the chart poles.
"""

import math

import numpy as np

__all__ = [
    "BLOCK_ENTRIES",
    "unit_sphere_area",
    "sphere_chart",
    "flat_angular_density",
    "SphereQuadrature",
]


def unit_sphere_area(n):
    """Area omega_{n-1} of the unit (n-1)-sphere: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_chart(phi):
    """Map angles to unit vectors.

    phi: array (..., n-1) -> unit vectors (..., n).
    """
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[-1]
    n = d + 1
    u = np.empty(phi.shape[:-1] + (n,), dtype=float)
    sin_running = np.ones(phi.shape[:-1], dtype=float)
    for k in range(d):
        u[..., k] = sin_running * np.cos(phi[..., k])
        sin_running = sin_running * np.sin(phi[..., k])
    u[..., n - 1] = sin_running
    return u


def flat_angular_density(phi):
    """Angular density of the flat area element on the unit sphere.

    dA_delta = r^{n-1} * flat_angular_density(phi) * dphi^1 ... dphi^{n-1},
    i.e. prod_{k=1}^{n-2} sin^{n-1-k}(phi^k).
    """
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[-1]
    n = d + 1
    out = np.ones(phi.shape[:-1], dtype=float)
    for k in range(d - 1):
        out = out * np.sin(phi[..., k]) ** (n - 2 - k)
    return out


# entries (floats) that one sampled block may make its integrand hold: a
# block has at most BLOCK_ENTRIES // entries_per_node nodes, so the memory of
# every sphere and annulus integral is bounded whatever n and q are
BLOCK_ENTRIES = 2 ** 22


class SphereQuadrature:
    """Tensor-product quadrature on the angle box for S^{n-1}.

    Polar angles use q-point Gauss-Legendre on [0, pi]; the periodic angle
    uses the q-point trapezoid (uniform) rule on [0, 2pi).  `full_grid`
    gives the plain angle-box weights; `sample` gives points on spheres with
    the flat area element folded into the weights.
    """

    def __init__(self, n, q):
        if n < 2:
            raise ValueError("need n >= 2")
        if q < 2:
            raise ValueError("need q >= 2")
        self.n = n
        self.q = q
        self.nodes_1d = []
        self.weights_1d = []
        if n > 2:
            # the n - 2 polar angles share one Gauss-Legendre rule on [0, pi]
            xg, wg = np.polynomial.legendre.leggauss(q)
            self.nodes_1d = [0.5 * math.pi * (xg + 1.0)] * (n - 2)
            self.weights_1d = [0.5 * math.pi * wg] * (n - 2)
        self.nodes_1d.append(2.0 * math.pi * np.arange(q) / q)
        self.weights_1d.append(np.full(q, 2.0 * math.pi / q))

    @property
    def num_nodes(self):
        return self.q ** (self.n - 1)

    def _nodes(self, index):
        """Angles (N, n-1) and angle-box weights (N,) of the flat node
        indices `index` (row-major over the angles)."""
        digits = np.unravel_index(index, (self.q,) * (self.n - 1))
        phi = np.stack(
            [nodes[d] for nodes, d in zip(self.nodes_1d, digits)], axis=-1
        )
        w = np.ones(phi.shape[0])
        for weights, d in zip(self.weights_1d, digits):
            w = w * weights[d]
        return phi, w

    def full_grid(self):
        """All nodes and weights: (N, n-1) angles and (N,) weights."""
        return self._nodes(np.arange(self.num_nodes))

    def sample(self, radii, symmetric, entries_per_node, radial_weights=None):
        """Yield (x, w) blocks of points on the spheres |x| = r and weights.

        sum over blocks of dot(w, f(x)) is the quadrature value of
        sum_k radial_weights[k] int_{S_{r_k}} f dA_flat (radial weights
        default to 1).  With `symmetric` the integrand is taken to be
        constant on each sphere, and one generic node per radius carries
        the weight omega_{n-1} r^{n-1}; otherwise every radius gets the full
        angular grid.  `entries_per_node` is the number of floats the
        caller's integrand holds per node (n^3 for dg, n^4 for d2g); each
        block has at most BLOCK_ENTRIES // entries_per_node nodes.
        """
        radii = np.asarray(radii, dtype=float).reshape(-1)
        scale = radii ** (self.n - 1)
        if radial_weights is not None:
            scale = scale * np.asarray(radial_weights, dtype=float)
        per_sphere = 1 if symmetric else self.num_nodes
        total = radii.size * per_sphere
        max_nodes = max(1, BLOCK_ENTRIES // entries_per_node)
        for start in range(0, total, max_nodes):
            k, index = np.divmod(
                np.arange(start, min(start + max_nodes, total)), per_sphere
            )
            if symmetric:
                u = sphere_chart(self.generic_node())[None, :]
                w = np.full(k.size, unit_sphere_area(self.n))
            else:
                phi, w = self._nodes(index)
                u = sphere_chart(phi)
                w = w * flat_angular_density(phi)
            yield radii[k, None] * u, scale[k] * w

    def generic_node(self):
        """A single interior node with no special symmetry (the one node
        of a symmetric sample)."""
        phi = np.array([self.nodes_1d[k][self.q // 3] for k in range(self.n - 1)])
        return phi

    def unit_sphere_weighted_area(self):
        """Quadrature value of the flat unit-sphere area (exactness check)."""
        out = 2.0 * math.pi
        n = self.n
        for k in range(n - 2):
            out *= float(
                np.dot(self.weights_1d[k], np.sin(self.nodes_1d[k]) ** (n - 2 - k))
            )
        return out
