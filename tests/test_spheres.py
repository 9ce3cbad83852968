import math

import numpy as np
import pytest

from afmass import curvature, mass, spheres, weighted
from afmass.geometry import (
    SphereQuadrature,
    sample_spheres,
    sphere_chart,
    unit_sphere_area,
)
from afmass.mass import adm_flux
from afmass.metrics import (
    asymptotically_schwarzschild,
    euclidean,
    harmonic_dipole_field,
    conformally_flat,
    metric_jet,
    scaled,
    schwarzschild,
    translated,
)
from afmass.spheres import (
    _geometry_at,
    conformal_mean_curvature,
    conformal_sphere_area,
    conformal_sphere_scalar_curvature,
    sphere_area,
    sphere_report,
)
from afmass.weighted import _volume_quadrature, d_operator_at, matter_integral

# closed-form sphere data frozen from the conformal formulas:
# n=3, m=1, r=10 and n=5, m=2, r=4
ORACLE_N3 = dict(area=1527.4502021569917, H=0.16412914372098045,
                 rho=0.016454049495837637)
ORACLE_N5 = dict(area=7022.053436857589, H=0.9592642756586439,
                 rho=0.7346549680828541)


def _radial_factor(spec, r):
    """(U(r), U'(r)) of a family's radial profile."""
    profile = spec.family.radial_profile
    return tuple(float(f(np.array([r]))[0]) for f in (profile.u, profile.du))


class TestEuclideanSpheres:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mean_curvature(self, n):
        spec = euclidean(n)
        phi = np.array([[0.7] * (n - 1), [1.2] + [0.4] * (n - 2)])
        H = _geometry_at(spec, 5.0, 5.0 * sphere_chart(phi), 1)[1]
        assert np.allclose(H, (n - 1) / 5.0, rtol=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_intrinsic_curvature(self, n):
        spec = euclidean(n)
        phi = np.array([[0.9] * (n - 1)])
        rho = _geometry_at(spec, 5.0, 5.0 * sphere_chart(phi), 2)[2]
        assert rho == pytest.approx((n - 1) * (n - 2) / 25.0, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_area(self, n):
        spec = euclidean(n)
        # the translated chart has no radial profile: the quadrature runs
        grid = translated(spec, np.zeros(n))
        assert sphere_area(grid, 3.0, q=24) == pytest.approx(
            unit_sphere_area(n) * 3.0 ** (n - 1), rel=1e-10
        )


    def test_circle(self):
        # n = 2 has no conformal closed forms: the pointwise route runs
        rep = sphere_report(euclidean(2), 2.0, q=8)
        assert rep.area == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert rep.H_min == pytest.approx(0.5, rel=1e-14)
        assert rep.H_max == pytest.approx(0.5, rel=1e-14)
        assert rep.rho_min == rep.rho_max == 0.0


class TestSchwarzschildOracles:
    def test_closed_form_values_n3(self):
        spec = schwarzschild(3, 1.0)
        x = 10.0 * sphere_chart(np.array([[0.9, 1.3]]))
        assert sphere_area(spec, 10.0) == pytest.approx(ORACLE_N3["area"], rel=1e-13)
        assert _geometry_at(spec, 10.0, x, 1)[1][0] == pytest.approx(
            ORACLE_N3["H"], rel=1e-13
        )
        assert _geometry_at(spec, 10.0, x, 2)[2][0] == pytest.approx(
            ORACLE_N3["rho"], rel=1e-13
        )
        # the report takes the closed forms
        rep = sphere_report(spec, 10.0)
        assert rep.H_min == rep.H_max == pytest.approx(ORACLE_N3["H"], rel=1e-13)
        assert rep.rho_min == pytest.approx(ORACLE_N3["rho"], rel=1e-13)

    def test_closed_form_values_n5(self):
        spec = schwarzschild(5, 2.0)
        x = 4.0 * sphere_chart(np.array([[0.9, 1.1, 1.3, 0.7]]))
        assert sphere_area(spec, 4.0) == pytest.approx(ORACLE_N5["area"], rel=1e-13)
        assert _geometry_at(spec, 4.0, x, 1)[1][0] == pytest.approx(
            ORACLE_N5["H"], rel=1e-13
        )
        assert _geometry_at(spec, 4.0, x, 2)[2][0] == pytest.approx(
            ORACLE_N5["rho"], rel=1e-13
        )
        # the report takes the closed forms
        rep = sphere_report(spec, 4.0)
        assert rep.H_min == rep.H_max == pytest.approx(ORACLE_N5["H"], rel=1e-13)
        assert rep.rho_min == pytest.approx(ORACLE_N5["rho"], rel=1e-13)

    def test_generic_route_matches_closed_form(self):
        spec = schwarzschild(3, 1.0)
        x = 10.0 * sphere_chart(np.array([[0.9, 1.3]]))
        Hg = _geometry_at(spec, 10.0, x, 1)[1][0]
        assert Hg == pytest.approx(ORACLE_N3["H"], rel=1e-10)
        rg = _geometry_at(spec, 10.0, x, 2)[2][0]
        assert rg == pytest.approx(ORACLE_N3["rho"], rel=1e-8)
        ag = sphere_area(translated(spec, np.zeros(3)), 10.0, q=24)
        assert ag == pytest.approx(ORACLE_N3["area"], rel=1e-10)


class TestPoles:
    # the chart poles are ordinary points of the sphere
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generic_route_at_poles(self, n):
        phi = np.array([[0.0] + [0.7] * (n - 2), [math.pi] + [0.4] * (n - 2)])
        r = 6.0
        x = r * sphere_chart(phi)
        flat = euclidean(n)
        H = _geometry_at(flat, r, x, 1)[1]
        rho = _geometry_at(flat, r, x, 2)[2]
        assert np.allclose(H, (n - 1) / r, rtol=1e-12, atol=0.0)
        assert np.allclose(rho, (n - 1) * (n - 2) / r ** 2, rtol=1e-12, atol=0.0)
        spec = schwarzschild(n, 1.5)
        H = _geometry_at(spec, r, x, 1)[1]
        rho = _geometry_at(spec, r, x, 2)[2]
        u, du = _radial_factor(spec, r)
        assert np.allclose(H, conformal_mean_curvature(n, r, u, du),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(rho, conformal_sphere_scalar_curvature(n, r, u),
                           rtol=1e-12, atol=0.0)


def _pullback_area_density(spec, r, phi):
    """sqrt(det gamma) for gamma the chart pullback of g to S_r, n = 3."""
    a, b = phi[:, 0], phi[:, 1]
    J = np.stack([
        np.stack([-np.sin(a), np.cos(a) * np.cos(b), np.cos(a) * np.sin(b)], axis=1),
        np.stack([np.zeros_like(a), -np.sin(a) * np.sin(b), np.sin(a) * np.cos(b)],
                 axis=1),
    ], axis=2) * r
    g = metric_jet(spec, r * sphere_chart(phi), 0)[0]
    return np.sqrt(np.linalg.det(np.einsum("nka,nkl,nlb->nab", J, g, J)))


NON_SYMMETRIC_N3 = {
    "AS": asymptotically_schwarzschild(3, 1.0, c=0.3),
    "dipole": conformally_flat(3, harmonic_dipole_field(3, 0.5, 0.3)),
}


class TestChartFreeOracles:
    @pytest.mark.parametrize("name", sorted(NON_SYMMETRIC_N3))
    @pytest.mark.parametrize("r", [3.0, 10.0, 40.0])
    def test_gauss_bonnet(self, name, r):
        # int_{S_r} rho dA = 4 pi chi(S^2) = 8 pi for every metric at n = 3
        spec = NON_SYMMETRIC_N3[name]
        phi, w = SphereQuadrature(3, 16).full_grid()
        rho = _geometry_at(spec, r, r * sphere_chart(phi), 2)[2]
        total = float(np.dot(w, rho * _pullback_area_density(spec, r, phi)))
        assert total == pytest.approx(8.0 * math.pi, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(NON_SYMMETRIC_N3))
    def test_area_matches_chart_pullback(self, name):
        spec = NON_SYMMETRIC_N3[name]
        phi, w = SphereQuadrature(3, 16).full_grid()
        pullback = float(np.dot(w, _pullback_area_density(spec, 10.0, phi)))
        assert sphere_area(spec, 10.0, q=16) == pytest.approx(pullback, rel=1e-13)


def _no_axis(n):
    """A traceless direction B with n distinct eigenvalues, so that
    asymptotically_schwarzschild(n, m, direction=B) has no axis."""
    return np.diag(np.arange(n) - 0.5 * (n - 1))


class TestAxialRoute:
    # the default B = e1 e1 has the axis e1: analytic sphere integrals and
    # extrema take one meridian of q nodes, the translated chart the grid
    @pytest.mark.parametrize("n,grid_q", [(3, 32), (4, 32), (5, 16)])
    def test_matches_the_full_grid(self, n, grid_q):
        spec = asymptotically_schwarzschild(n, 1.0, c=0.3)
        grid = translated(spec, np.zeros(n))
        r = 10.0
        assert adm_flux(spec, r, q=8) == pytest.approx(
            adm_flux(grid, r, q=grid_q), rel=1e-12)
        assert sphere_area(spec, r, q=8) == pytest.approx(
            sphere_area(grid, r, q=grid_q), rel=1e-12)
        axial = sphere_report(spec, r, q=8)
        full = sphere_report(grid, r, q=grid_q)
        assert axial.area == pytest.approx(full.area, rel=1e-12)
        # node extrema: the meridian and the grid place different nodes
        for key in ("H_min", "H_max", "maxH2", "rho_min", "rho_max"):
            assert getattr(axial, key) == pytest.approx(
                getattr(full, key), rel=1e-3), key

    def test_volume_integrals_match_the_full_grid(self):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.3)
        grid = translated(spec, np.zeros(3))
        assert matter_integral(spec, 2.0, 4.0, q=8, radial_q=8) == pytest.approx(
            matter_integral(grid, 2.0, 4.0, q=32, radial_q=8), rel=1e-12)
        edges = [2.0, 3.0, 4.0]
        assert _volume_quadrature(spec, d_operator_at, edges, 8, 8) == \
            pytest.approx(_volume_quadrature(grid, d_operator_at, edges, 32, 8),
                          rel=1e-12)

    @pytest.mark.parametrize("name,per_sphere", [
        ("analytic", 4), ("scaled", 4), ("fd", 16), ("no-axis", 16),
    ])
    def test_nodes_per_sphere(self, monkeypatch, name, per_sphere):
        n, q = 3, 4
        spec = {
            "analytic": asymptotically_schwarzschild(n, 1.0, c=0.3),
            "scaled": scaled(asymptotically_schwarzschild(n, 1.0, c=0.3), 2.0),
            "fd": asymptotically_schwarzschild(n, 1.0, c=0.3, derivative_mode="fd"),
            "no-axis": asymptotically_schwarzschild(n, 1.0, c=0.3,
                                                    direction=_no_axis(n)),
        }[name]
        counts = []

        def counting(n, q, radii, *args, **kwargs):
            nodes = 0
            for x, w in sample_spheres(n, q, radii, *args, **kwargs):
                nodes += x.shape[0]
                yield x, w
            counts.append(nodes / np.size(radii))

        for module in (mass, spheres, weighted):
            monkeypatch.setattr(module, "sample_spheres", counting)
        adm_flux(spec, 50.0, q=q)
        sphere_area(spec, 50.0, q=q)
        sphere_report(spec, 50.0, q=q)
        matter_integral(spec, 4.0, 8.0, q=q, radial_q=2)
        assert counts == [per_sphere] * 4


class TestSphereReport:
    def test_symmetric_fast_path_matches_generic(self):
        spec = schwarzschild(3, 1.0)
        fast = sphere_report(spec, 10.0, q=16)
        slow = sphere_report(translated(spec, np.zeros(3)), 10.0, q=16)
        assert fast.area == pytest.approx(slow.area, rel=1e-9)
        assert fast.H_max == pytest.approx(slow.H_max, rel=1e-9)
        assert fast.rho_min == pytest.approx(slow.rho_min, rel=1e-6)

    def test_extrema_ordering_generic_family(self):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.5)
        rep = sphere_report(spec, 15.0, q=12)
        assert rep.H_min <= rep.H_max
        assert rep.rho_min <= rep.rho_max
        assert rep.maxH2 >= rep.H_max ** 2 - 1e-12
        assert rep.maxH2 >= rep.H_min ** 2 - 1e-12
        # perturbation genuinely breaks symmetry
        assert rep.H_max > rep.H_min

    def test_christoffel_symbols_built_once_per_block(self, monkeypatch):
        calls = {"blocks": 0, "christoffel": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(spheres, "_geometry_at",
                            counting("blocks", spheres._geometry_at))
        monkeypatch.setattr(curvature, "_lowered_christoffel",
                            counting("christoffel", curvature._lowered_christoffel))
        # a direction without an axis keeps the full grid: 12^4 nodes, 4 blocks
        sphere_report(asymptotically_schwarzschild(5, 1.0, direction=_no_axis(5)),
                      40.0, q=12)
        assert calls == {"blocks": 4, "christoffel": 4}


class TestConformalClosedForms:
    def test_flat_limits(self):
        # U = 1 recovers the round-sphere quantities
        for n in (3, 5, 7):
            assert conformal_mean_curvature(n, 2.0, 1.0, 0.0) == pytest.approx(
                (n - 1) / 2.0
            )
            assert conformal_sphere_scalar_curvature(n, 2.0, 1.0) == pytest.approx(
                (n - 1) * (n - 2) / 4.0
            )
            assert conformal_sphere_area(n, 2.0, 1.0) == pytest.approx(
                unit_sphere_area(n) * 2.0 ** (n - 1)
            )

    def test_dipole_report_spread(self):
        # non-radial conformal factor: H varies over the sphere
        spec = conformally_flat(3, harmonic_dipole_field(3, 0.5, 0.3))
        rep = sphere_report(spec, 10.0, q=12)
        assert rep.H_max > rep.H_min
        assert rep.rho_min > 0
