import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass.geometry import (
    BLOCK_ENTRIES,
    SphereQuadrature,
    flat_angular_density,
    sphere_chart,
    unit_sphere_area,
)

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
    pieces = list(quad.sample(radii, False, 2 ** 22 // 7, radial_weights=[0.5, 3.0]))
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
    for x, w in quad.sample([1.0], False, BLOCK_ENTRIES // 2 ** 12):
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
    for x, w in quad.sample([r], symmetric, n ** 4):
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
    quad = SphereQuadrature(4, 16)
    radii = np.geomspace(1.0, 100.0, 5)
    (x, w), = quad.sample(radii, True, 4 ** 4, radial_weights=np.arange(1.0, 6.0))
    assert np.allclose(np.linalg.norm(x, axis=1), radii, rtol=1e-14)
    assert np.allclose(x / radii[:, None], sphere_chart(quad.generic_node()))
    assert np.allclose(
        w, np.arange(1.0, 6.0) * unit_sphere_area(4) * radii ** 3, rtol=1e-14
    )


def test_generic_node_interior():
    for n in range(2, 8):
        phi = SphereQuadrature(n, 16).generic_node()
        assert phi.shape == (n - 1,)
        assert np.all(phi > 0.05)


def test_quadrature_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SphereQuadrature(1, 8)
    with pytest.raises(ValueError):
        SphereQuadrature(3, 1)
