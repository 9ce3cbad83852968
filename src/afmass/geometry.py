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


class SphereQuadrature:
    """Tensor-product quadrature on the angle box for S^{n-1}.

    Polar angles use q-point Gauss-Legendre on [0, pi]; the periodic angle
    uses the q-point trapezoid (uniform) rule on [0, 2pi).  Weights are the
    plain angle-box weights; integrands must include the area density.
    """

    # full grids beyond this size are evaluated in chunks
    max_block = 2 ** 21

    def __init__(self, n, q):
        if n < 2:
            raise ValueError("need n >= 2")
        if q < 2:
            raise ValueError("need q >= 2")
        self.n = n
        self.q = q
        self.nodes_1d = []
        self.weights_1d = []
        for _ in range(n - 2):
            xg, wg = np.polynomial.legendre.leggauss(q)
            self.nodes_1d.append(0.5 * math.pi * (xg + 1.0))
            self.weights_1d.append(0.5 * math.pi * wg)
        self.nodes_1d.append(2.0 * math.pi * np.arange(q) / q)
        self.weights_1d.append(np.full(q, 2.0 * math.pi / q))

    @property
    def num_nodes(self):
        return self.q ** (self.n - 1)

    def full_grid(self):
        """All nodes and weights: (N, n-1) angles and (N,) weights."""
        mesh = np.meshgrid(*self.nodes_1d, indexing="ij")
        phi = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*self.weights_1d, indexing="ij")
        w = np.ones(phi.shape[0])
        for m in wmesh:
            w = w * m.ravel()
        return phi, w

    def blocks(self, max_nodes=None):
        """Yield (phi, w) blocks of at most max_nodes nodes (default
        max_block), splitting along the leading angles as needed."""
        if max_nodes is None:
            max_nodes = self.max_block
        if self.num_nodes <= max_nodes:
            yield self.full_grid()
            return
        # split along the leading angle
        sub = SphereQuadrature.__new__(SphereQuadrature)
        sub.n = self.n - 1
        sub.q = self.q
        sub.nodes_1d = self.nodes_1d[1:]
        sub.weights_1d = self.weights_1d[1:]
        for x0, w0 in zip(self.nodes_1d[0], self.weights_1d[0]):
            for phi_s, w_s in sub.blocks(max_nodes):
                phi = np.concatenate(
                    [np.full((phi_s.shape[0], 1), x0), phi_s], axis=1
                )
                yield phi, w0 * w_s

    def integrate(self, fn):
        """Integrate fn(phi) (vectorized over nodes) over the angle box."""
        total = 0.0
        for phi, w in self.blocks():
            total += float(np.dot(w, fn(phi)))
        return total

    def angle_box_volume(self):
        """Total weight, computed separably (no grid materialization)."""
        out = 1.0
        for w in self.weights_1d:
            out *= float(np.sum(w))
        return out

    def generic_node(self):
        """A single interior node with no special symmetry, used by fast paths."""
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
