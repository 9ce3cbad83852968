import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass.cone import capped_cone, cone_mass
from afmass.geometry import (
    BLOCK_ENTRIES,
    SphereQuadrature,
    _gauss_jacobi,
    _one_node,
    flat_angular_density,
    legendre_rule,
    sample_spheres,
    sphere_chart,
    unit_sphere_area,
)
from afmass.mass import adm_flux, adm_mass
from afmass.metrics import asymptotically_schwarzschild, schwarzschild
from afmass.shells import shell_metric
from afmass.weighted import mass_via_divergence

# closed-form unit-sphere areas
AREAS = {
    2: 2.0 * math.pi,
    3: 4.0 * math.pi,
    4: 2.0 * math.pi ** 2,
    5: 8.0 * math.pi ** 2 / 3.0,
    6: math.pi ** 3,
    7: 16.0 * math.pi ** 3 / 15.0,
}


@pytest.mark.parametrize("n,expected", sorted(AREAS.items()))
def test_unit_sphere_area_closed_forms(n, expected):
    assert unit_sphere_area(n) == pytest.approx(expected, rel=1e-14)


def test_unit_sphere_area_rejects_low_dimension():
    with pytest.raises(ValueError):
        unit_sphere_area(1)


@given(
    st.integers(min_value=2, max_value=7),
    st.lists(st.floats(0.05, 3.0), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_chart_maps_to_unit_vectors(n, angles):
    phi = np.array(angles[: n - 1])
    u = sphere_chart(phi)
    assert u.shape == (n,)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_chart_batched_shape():
    phi = np.random.default_rng(0).uniform(0.1, 3.0, size=(5, 4))
    u = sphere_chart(phi)
    assert u.shape == (5, 5)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("q", [16, 24, 32])
def test_quadrature_reproduces_sphere_area(n, q):
    quad = SphereQuadrature(n, q)
    assert quad.unit_sphere_weighted_area() == pytest.approx(
        unit_sphere_area(n), rel=1e-10
    )


def test_quadrature_full_grid_matches_separable_area():
    quad = SphereQuadrature(4, 12)
    phi, w = quad.full_grid()
    total = float(np.dot(w, flat_angular_density(phi)))
    assert total == pytest.approx(unit_sphere_area(4), rel=1e-10)


def test_blocks_cover_full_grid():
    # every radius gets the full grid, in grid order, with the flat area
    # element and the radial weight folded into the weights
    quad = SphereQuadrature(3, 8)
    phi_full, w_full = quad.full_grid()
    radii = np.array([2.0, 5.0])
    pieces = list(sample_spheres(3, 8, radii, False, 2 ** 22 // 7,
                                 radial_weights=[0.5, 3.0]))
    assert len(pieces) > 1
    x = np.concatenate([x for x, _ in pieces])
    w = np.concatenate([w for _, w in pieces])
    u = sphere_chart(phi_full)
    dens = w_full * flat_angular_density(phi_full)
    assert np.allclose(x, np.concatenate([2.0 * u, 5.0 * u]), rtol=0, atol=1e-15)
    assert np.allclose(w, np.concatenate([0.5 * 4.0 * dens, 3.0 * 25.0 * dens]),
                       rtol=1e-15, atol=0)


def test_blocks_split_large_grids():
    quad = SphereQuadrature(6, 24)
    sizes = []
    total = 0.0
    for x, w in sample_spheres(6, 24, [1.0], False, BLOCK_ENTRIES // 2 ** 12):
        sizes.append(x.shape[0])
        total += float(w.sum())
    assert max(sizes) <= 2 ** 12
    assert sum(sizes) == quad.num_nodes
    assert total == pytest.approx(unit_sphere_area(6), rel=1e-10)


@pytest.mark.parametrize("symmetric", [False, True])
def test_sample_bounds_block_memory_at_n7(symmetric):
    n, q, r = 7, 8, 3.0
    quad = SphereQuadrature(n, q)
    cap = BLOCK_ENTRIES // n ** 4
    sizes = []
    total = 0.0
    for x, w in sample_spheres(n, q, [r], symmetric, n ** 4):
        sizes.append(x.shape[0])
        assert np.allclose(np.linalg.norm(x, axis=1), r, rtol=1e-14)
        total += float(w.sum())
    assert max(sizes) <= cap
    assert sum(sizes) == (1 if symmetric else quad.num_nodes)
    # a symmetric sample is exact; at q = 8 the grid misses omega_6 by 2e-5
    area = unit_sphere_area(n) if symmetric else quad.unit_sphere_weighted_area()
    assert area == pytest.approx(unit_sphere_area(n), rel=1e-4)
    assert total == pytest.approx(area * r ** (n - 1), rel=1e-12)


def test_symmetric_sample_is_one_node_per_radius():
    radii = np.geomspace(1.0, 100.0, 5)
    (x, w), = sample_spheres(4, 16, radii, True, 4 ** 4,
                             radial_weights=np.arange(1.0, 6.0))
    assert np.allclose(np.linalg.norm(x, axis=1), radii, rtol=1e-14)
    assert np.allclose(x / radii[:, None], _one_node(4, 16)[0])
    assert np.allclose(
        w, np.arange(1.0, 6.0) * unit_sphere_area(4) * radii ** 3, rtol=1e-14
    )


@pytest.mark.parametrize("symmetry", [True, np.array([1.0, 0.0, 0.0]), False],
                         ids=["one-node", "meridian", "grid"])
def test_overflowing_weight_is_one_error(symmetry):
    # r^2 overflows at r = 1e200: OverflowError before the first block is
    # handed out, whatever the warnings filter
    blocks = sample_spheres(3, 4, [10.0, 1e200], symmetry, 3 ** 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="radii up to 1e\\+200"):
            next(blocks)


def _sphere_moment(n, k):
    """int_{S^{n-1}} (u.a)^{2k} dA = omega_{n-1} (2k-1)!! / (n (n+2) ... (n+2k-2))."""
    out = unit_sphere_area(n)
    for j in range(k):
        out *= (2 * j + 1) / (n + 2 * j)
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_meridian_rule_is_exact_to_degree_2q_minus_1(n):
    v = np.linspace(-1.0, 2.0, n)
    for q in range(2, 17):
        for axis in (np.eye(n)[0], v / np.linalg.norm(v)):
            (x, w), = sample_spheres(n, q, [1.0], axis, n ** 4)
            assert x.shape == (q, n)
            assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-15)
            t = x @ axis
            assert np.all(np.diff(t) > 0.0)
            assert w.sum() == pytest.approx(unit_sphere_area(n), rel=1e-14)
            for k in range(q):
                assert float(np.dot(w, t ** (2 * k))) == pytest.approx(
                    _sphere_moment(n, k), rel=1e-14), (q, k)
            # the rule is symmetric: odd powers of t vanish
            assert abs(float(np.dot(w, t ** (2 * q - 1)))) < 1e-14


def test_meridian_sample_covers_every_radius():
    # q nodes per radius, r^{n-1} and the radial weight folded in, in blocks
    n, q = 5, 6
    axis = np.eye(n)[2]
    (u, w_unit), = sample_spheres(n, q, [1.0], axis, 1)
    radii = np.array([2.0, 3.0, 7.0])
    pieces = list(sample_spheres(n, q, radii, axis, BLOCK_ENTRIES // 4,
                                 radial_weights=[0.5, 1.0, 2.0]))
    assert [x.shape[0] for x, _ in pieces] == [4, 4, 4, 4, 2]
    x = np.concatenate([x for x, _ in pieces])
    w = np.concatenate([w for _, w in pieces])
    assert np.allclose(x, np.concatenate([r * u for r in radii]), rtol=0, atol=1e-14)
    assert np.allclose(w, np.concatenate(
        [rw * r ** (n - 1) * w_unit for r, rw in zip(radii, (0.5, 1.0, 2.0))]),
        rtol=1e-15, atol=0)


def test_generic_node_interior():
    # the one node of a symmetric sample is a unit vector off every
    # coordinate hyperplane
    for n in range(2, 8):
        u, _ = _one_node(n, 16)
        assert u.shape == (1, n)
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-15)
        assert np.all(np.abs(u) > 0.05)


def test_quadrature_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SphereQuadrature(1, 8)
    with pytest.raises(ValueError):
        SphereQuadrature(3, 1)
    for n, q in ((1, 8), (3, 1)):
        for symmetry in (True, False):
            with pytest.raises(ValueError):
                list(sample_spheres(n, q, [1.0], symmetry, 1))


@pytest.mark.parametrize("n", range(2, 8))
def test_one_node_is_the_generic_node(n):
    # the cached node carries the whole sphere's area and is read-only
    for q in range(2, 33):
        u, w = _one_node(n, q)
        assert u.shape == (1, n), q
        assert w.tolist() == [unit_sphere_area(n)]
        for a in (u, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


# ---------------------------------------------------------------------------
# the rule factory: each fixed 1-d rule is built once per process


@pytest.fixture
def cold_rules():
    """Empty rule caches, so each test sees its own first build."""
    legendre_rule.cache_clear()
    _gauss_jacobi.cache_clear()
    _one_node.cache_clear()


@pytest.fixture
def leggauss_orders(monkeypatch):
    """The orders q of every numpy leggauss build during the test."""
    orders = []
    build = np.polynomial.legendre.leggauss

    def spy(q):
        orders.append(q)
        return build(q)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    return orders


@pytest.mark.parametrize("q", [4, 16, 64, 96, 128])
def test_legendre_rule_is_numpys_rule(cold_rules, q):
    for got, want in zip(legendre_rule(q), np.polynomial.legendre.leggauss(q)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_rules_are_read_only(cold_rules):
    for rule in (legendre_rule(8), _gauss_jacobi(8, 1.0)):
        for a in rule:
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_cone_mass_builds_its_rule_once(cold_rules, leggauss_orders):
    cone_mass(capped_cone(0.7))
    cone_mass(capped_cone(0.4))
    assert leggauss_orders.count(128) == 1


def test_mass_via_divergence_builds_its_radial_rule_once(cold_rules, leggauss_orders):
    # one radial rule for the three annuli, and one q = 4 rule for the node
    mass_via_divergence(schwarzschild(3, 1.0), q=4)
    assert leggauss_orders.count(64) == 1
    assert leggauss_orders.count(4) == 1


@pytest.mark.parametrize("compute", [
    lambda: adm_mass(schwarzschild(3, 1.0), q=16),
    lambda: mass_via_divergence(shell_metric(3, 4)),
], ids=["adm_mass", "mass_via_divergence"])
def test_one_node_samples_build_no_rule(leggauss_orders, compute):
    compute()
    leggauss_orders.clear()
    compute()
    assert leggauss_orders == []


@pytest.fixture
def quadratures(monkeypatch):
    """The (n, q) of every SphereQuadrature built during the test."""
    built = []
    init = SphereQuadrature.__init__

    def spy(self, n, q):
        built.append((n, q))
        init(self, n, q)

    monkeypatch.setattr(SphereQuadrature, "__init__", spy)
    return built


@pytest.mark.parametrize("direction", [None, np.diag([-1.0, 0.0, 1.0])],
                         ids=["axial", "no-axis"])
def test_meridian_and_grid_build_a_quadrature_per_call(quadratures, direction):
    # the benchmark's fg-profile job (an axial family) pins a numpy.leggauss
    # span, so the meridian and the grid keep their per-call polar rule
    spec = asymptotically_schwarzschild(3, 1.0, c=0.3, direction=direction)
    for r in (20.0, 40.0):
        adm_flux(spec, r, q=8)
    assert quadratures == [(3, 8), (3, 8)]


def test_gauss_jacobi_rule_is_shared(cold_rules):
    t, w = _gauss_jacobi(8, 1.0)
    again = _gauss_jacobi(8, 1.0)
    assert again[0] is t and again[1] is w
