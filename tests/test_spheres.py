import math

import numpy as np
import pytest

from afmass import curvature, spheres
from afmass.geometry import SphereQuadrature, sphere_chart, unit_sphere_area
from afmass.metrics import (
    asymptotically_schwarzschild,
    euclidean,
    harmonic_dipole_field,
    conformally_flat,
    metric_at,
    schwarzschild,
    translated,
)
from afmass.spheres import (
    conformal_mean_curvature,
    conformal_sphere_area,
    conformal_sphere_scalar_curvature,
    intrinsic_scalar_curvature_at,
    mean_curvature_at,
    sphere_area,
    sphere_report,
)

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
        H = mean_curvature_at(spec, 5.0, phi)
        assert np.allclose(H, (n - 1) / 5.0, rtol=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_intrinsic_curvature(self, n):
        spec = euclidean(n)
        phi = np.array([[0.9] * (n - 1)])
        rho = intrinsic_scalar_curvature_at(spec, 5.0, phi)
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
        phi = np.array([0.9, 1.3])
        assert sphere_area(spec, 10.0) == pytest.approx(ORACLE_N3["area"], rel=1e-13)
        assert mean_curvature_at(spec, 10.0, phi) == pytest.approx(
            ORACLE_N3["H"], rel=1e-13
        )
        assert intrinsic_scalar_curvature_at(spec, 10.0, phi) == pytest.approx(
            ORACLE_N3["rho"], rel=1e-13
        )
        # the report takes the closed forms
        rep = sphere_report(spec, 10.0)
        assert rep.H_min == rep.H_max == pytest.approx(ORACLE_N3["H"], rel=1e-13)
        assert rep.rho_min == pytest.approx(ORACLE_N3["rho"], rel=1e-13)

    def test_closed_form_values_n5(self):
        spec = schwarzschild(5, 2.0)
        phi = np.array([0.9, 1.1, 1.3, 0.7])
        assert sphere_area(spec, 4.0) == pytest.approx(ORACLE_N5["area"], rel=1e-13)
        assert mean_curvature_at(spec, 4.0, phi) == pytest.approx(
            ORACLE_N5["H"], rel=1e-13
        )
        assert intrinsic_scalar_curvature_at(spec, 4.0, phi) == pytest.approx(
            ORACLE_N5["rho"], rel=1e-13
        )
        # the report takes the closed forms
        rep = sphere_report(spec, 4.0)
        assert rep.H_min == rep.H_max == pytest.approx(ORACLE_N5["H"], rel=1e-13)
        assert rep.rho_min == pytest.approx(ORACLE_N5["rho"], rel=1e-13)

    def test_generic_route_matches_closed_form(self):
        spec = schwarzschild(3, 1.0)
        phi = np.array([[0.9, 1.3]])
        Hg = mean_curvature_at(spec, 10.0, phi)[0]
        assert Hg == pytest.approx(ORACLE_N3["H"], rel=1e-10)
        rg = intrinsic_scalar_curvature_at(spec, 10.0, phi)[0]
        assert rg == pytest.approx(ORACLE_N3["rho"], rel=1e-8)
        ag = sphere_area(translated(spec, np.zeros(3)), 10.0, q=24)
        assert ag == pytest.approx(ORACLE_N3["area"], rel=1e-10)


class TestPoles:
    # the chart poles are ordinary points of the sphere
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generic_route_at_poles(self, n):
        phi = np.array([[0.0] + [0.7] * (n - 2), [math.pi] + [0.4] * (n - 2)])
        r = 6.0
        flat = euclidean(n)
        H = mean_curvature_at(flat, r, phi)
        rho = intrinsic_scalar_curvature_at(flat, r, phi)
        assert np.allclose(H, (n - 1) / r, rtol=1e-12, atol=0.0)
        assert np.allclose(rho, (n - 1) * (n - 2) / r ** 2, rtol=1e-12, atol=0.0)
        spec = schwarzschild(n, 1.5)
        H = mean_curvature_at(spec, r, phi)
        rho = intrinsic_scalar_curvature_at(spec, r, phi)
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
    g = metric_at(spec, r * sphere_chart(phi))
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
        rho = intrinsic_scalar_curvature_at(spec, r, phi)
        total = float(np.dot(w, rho * _pullback_area_density(spec, r, phi)))
        assert total == pytest.approx(8.0 * math.pi, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(NON_SYMMETRIC_N3))
    def test_area_matches_chart_pullback(self, name):
        spec = NON_SYMMETRIC_N3[name]
        phi, w = SphereQuadrature(3, 16).full_grid()
        pullback = float(np.dot(w, _pullback_area_density(spec, 10.0, phi)))
        assert sphere_area(spec, 10.0, q=16) == pytest.approx(pullback, rel=1e-13)


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
        sphere_report(asymptotically_schwarzschild(5, 1.0), 40.0, q=12)
        assert calls == {"blocks": 4, "christoffel": 4}

    def test_csv_row_layout(self):
        rep = sphere_report(schwarzschild(3, 1.0), 10.0, q=8)
        row = rep.csv_row()
        assert len(row) == len(rep.csv_columns) == 8
        assert row[0] == 10.0
        assert row[-1] == 8


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
