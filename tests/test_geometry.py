import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass.geometry import (
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
    total = quad.integrate(flat_angular_density)
    assert total == pytest.approx(unit_sphere_area(4), rel=1e-10)


def test_blocks_cover_full_grid():
    quad = SphereQuadrature(3, 8)
    phi_full, w_full = quad.full_grid()
    pieces = list(quad.blocks())
    phi_cat = np.concatenate([p for p, _ in pieces])
    w_cat = np.concatenate([np.atleast_1d(w) for _, w in pieces])
    assert phi_cat.shape == phi_full.shape
    assert np.isclose(w_cat.sum(), w_full.sum())


def test_blocks_split_large_grids():
    quad = SphereQuadrature(6, 24)
    quad.max_block = 2 ** 12
    sizes = []
    total = 0.0
    for phi, w in quad.blocks():
        sizes.append(phi.shape[0])
        total += float(np.dot(w, flat_angular_density(phi)))
    assert max(sizes) <= 2 ** 12
    assert total == pytest.approx(unit_sphere_area(6), rel=1e-10)


def test_angle_box_volume():
    quad = SphereQuadrature(4, 10)
    # [0, pi]^2 x [0, 2pi)
    assert quad.angle_box_volume() == pytest.approx(2.0 * math.pi ** 3, rel=1e-12)


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
