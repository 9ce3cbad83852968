"""End-to-end acceptance checks, one test per criterion.

Each test pins the quoted tolerance and runtime budget. The terminal
summary (see conftest.py) reports one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from afmass.cone import (
    capped_cone,
    cone_mass,
    cone_semicontinuity_experiment,
    geodesic_curvature_integral,
    total_gauss_curvature,
)
from afmass.curvature import scalar_curvature
from afmass.geometry import (
    SphereQuadrature,
    flat_angular_density,
    sphere_chart,
    unit_sphere_area,
)
from afmass.mass import adm_mass, fg, fg_limit
from afmass.metrics import (
    asymptotically_schwarzschild,
    conformally_flat,
    euclidean,
    harmonic_dipole_field,
    metric_derivatives_at,
    metric_jet,
    scaled,
    schwarzschild,
)
from afmass.sequences import run_semicontinuity_experiment
from afmass.shells import shell_mass, shell_metric
from afmass.spheres import (
    _geometry_at,
    conformal_mean_curvature,
    conformal_sphere_scalar_curvature,
)
from afmass.weighted import (
    WeightedNormParams,
    mass_matter_defect,
    mass_via_divergence,
    weighted_seminorm,
)

DIMS = (3, 4, 5, 6, 7)
MASS_RADII = (50.0, 100.0, 200.0, 400.0)


def test_criterion_1_schwarzschild_mass_recovery():
    # adm_mass returns m = 1 within 1e-3 for n = 3..7, under 10 s each
    for n in DIMS:
        t0 = time.monotonic()
        est = adm_mass(schwarzschild(n, 1.0), radii=MASS_RADII, q=32)
        elapsed = time.monotonic() - t0
        assert abs(est.value - 1.0) < 1e-3, (n, est.value)
        assert elapsed < 10.0, (n, elapsed)


def test_criterion_2_quasilocal_limit_and_residual_halving():
    # fg_limit recovers m within 2e-2; the residual fg(r) - m halves under
    # r-doubling for r >= 50 (up to a numerical floor where it vanishes)
    for n in DIMS:
        t0 = time.monotonic()
        spec = schwarzschild(n, 1.0)
        est = fg_limit(spec, radii=MASS_RADII, q=32)
        assert abs(est.value - 1.0) < 2e-2, (n, est.value)
        residuals = [fg(spec, r, q=32) - 1.0 for r in (50.0, 100.0, 200.0)]
        if max(abs(res) for res in residuals) > 1e-6:
            for a, b in zip(residuals, residuals[1:]):
                assert 1.6 < a / b < 2.4, (n, residuals)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, (n, elapsed)
    # a metric whose conformal factor has a dipole term shows the generic
    # first-order residual decay explicitly
    dipole = conformally_flat(3, harmonic_dipole_field(3, a=0.5, b=2.0))
    residuals = [fg(dipole, r, q=16) - 1.0 for r in (50.0, 100.0, 200.0)]
    for a, b in zip(residuals, residuals[1:]):
        assert 1.6 < a / b < 2.4, residuals


def _area_averaged_sphere_curvatures(spec, r, q):
    n = spec.family.n
    quad = SphereQuadrature(n, q)
    phi, w = quad.full_grid()
    weights = w * flat_angular_density(phi)
    _, H, rho = _geometry_at(spec, r, r * sphere_chart(phi), 2)
    total = weights.sum()
    return float(np.dot(weights, H) / total), float(np.dot(weights, rho) / total)


def test_criterion_3_sphere_expansion_coefficients():
    # the r^{1-n} coefficient of the sphere mean curvature and the r^{-n}
    # coefficient of its intrinsic curvature recover -(n-1)^2 m/(n-2) and
    # -2(n-1) m within 5% on a non-symmetric asymptotically flat metric
    t0 = time.monotonic()
    angular_q = {3: 8, 4: 6, 5: 4}
    for n in (3, 4, 5):
        m = 1.0
        spec = asymptotically_schwarzschild(n, m, c=0.3)
        fits = []
        for r in (20.0, 40.0):
            H_avg, rho_avg = _area_averaged_sphere_curvatures(
                spec, r, angular_q[n]
            )
            fits.append((
                (H_avg - (n - 1) / r) * r ** (n - 1),
                (rho_avg - (n - 1) * (n - 2) / r ** 2) * r ** n,
            ))
        # Richardson step in 1/r removes the next-order contamination
        cH = 2.0 * fits[1][0] - fits[0][0]
        crho = 2.0 * fits[1][1] - fits[0][1]
        target_H = -((n - 1) ** 2) * m / (n - 2)
        target_rho = -2.0 * (n - 1) * m
        assert abs(cH / target_H - 1.0) < 5e-2, (n, cH, target_H)
        assert abs(crho / target_rho - 1.0) < 5e-2, (n, crho, target_rho)
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_shell_masses_curvature_and_weighted_distance():
    t0 = time.monotonic()
    for n, tau in ((3, 0.75), (4, 1.5)):
        target = 2.0 / ((n - 2) * unit_sphere_area(n))
        if n == 3:
            assert target == pytest.approx(1.0 / (2.0 * math.pi))
        quad = SphereQuadrature(n, 4)
        phi, _ = quad.full_grid()
        distances = []
        for i in (1, 2, 4, 8):
            spec = shell_metric(n, i)
            est = adm_mass(spec)
            assert abs(est.value - target) < 1e-3, (n, i, est.value)
            # nonnegative scalar curvature at sampled points
            for r in (0.3 * i, 0.6 * i, 0.75 * i, 0.9 * i, 1.5 * i):
                x = r * sphere_chart(phi)
                R = scalar_curvature(metric_jet(spec, x, 0)[0],
                                     *metric_derivatives_at(spec, x))
                assert float(np.min(R)) > -1e-12, (n, i, r)
            params = WeightedNormParams(
                tau=tau, k=2, r_min=0.05, r_max=64.0,
                radii_per_decade=24, angular_q=4,
            )
            distances.append(float(weighted_seminorm(spec, params)))
        # weight tau sits strictly between (n-2)/2 and n-2
        assert (n - 2) / 2.0 < tau < n - 2
        assert all(a > b for a, b in zip(distances, distances[1:])), distances
    assert time.monotonic() - t0 < 60.0


def test_criterion_5_divergence_mass_and_defect_decay():
    t0 = time.monotonic()
    cases = [
        euclidean(3),
        schwarzschild(3, 1.0),
        shell_metric(3, 2),
        shell_metric(4, 2),
    ]
    for spec in cases:
        via_div = mass_via_divergence(spec)
        direct = adm_mass(spec)
        assert abs(via_div.value - direct.value) < 2e-3, spec.family.name
    masses = []
    defects = []
    for i in (1, 2, 4, 8):
        rep = mass_matter_defect(shell_metric(3, i))
        masses.append(rep.mass)
        defects.append(rep.defect)
    assert all(m == pytest.approx(masses[0], rel=1e-9) for m in masses)
    assert all(abs(a) > abs(b) for a, b in zip(defects, defects[1:]))
    assert abs(defects[-1]) < 1e-2, defects
    assert time.monotonic() - t0 < 60.0


def test_criterion_6_cone_angle_mass_and_gauss_bonnet():
    t0 = time.monotonic()
    for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
        surface = capped_cone(alpha)
        for r in (2.0, 8.0, 32.0):
            residual = (
                total_gauss_curvature(surface, r)
                + geodesic_curvature_integral(surface, r)
                - 2.0 * math.pi
            )
            assert abs(residual) < 1e-8, (alpha, r, residual)
        # the two estimators must agree within 1e-6 or cone_mass raises
        est = cone_mass(surface)
        assert abs(est.value - (1.0 - alpha)) < 1e-10, (alpha, est.value)
    assert time.monotonic() - t0 < 5.0


def test_criterion_7_semicontinuity_experiments():
    t0 = time.monotonic()
    reports = {
        kind: run_semicontinuity_experiment(kind, n=3, indices=(2, 4, 8, 16))
        for kind in ("blow_up", "escaping", "shells")
    }
    reports["cone_blow_up"] = cone_semicontinuity_experiment(
        "blow_up", alpha=0.7
    )
    for kind, rep in reports.items():
        assert rep.verdict, kind
        assert rep.drop > 0.0, kind
        assert rep.exponent == pytest.approx(rep.expected_exponent, rel=0.15), (
            kind, rep.exponent, rep.expected_exponent,
        )
    assert time.monotonic() - t0 < 120.0


def test_criterion_8a_conformal_oracle_equivalence():
    # generic-route sphere curvature agrees with the closed conformal
    # formulas to 1e-8 relative at 100 random (n, m, r, angles)
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        m = float(rng.uniform(0.2, 2.0))
        spec = schwarzschild(n, m)
        r = float(rng.uniform(2.0 + 2.0 * m, 40.0))
        phi = np.concatenate([
            rng.uniform(0.3, math.pi - 0.3, size=n - 2),
            rng.uniform(0.0, 2.0 * math.pi, size=1),
        ])
        u = float(spec.family.radial_profile.u(np.array([r]))[0])
        du = float(spec.family.radial_profile.du(np.array([r]))[0])
        H_exact = conformal_mean_curvature(n, r, u, du)
        rho_exact = conformal_sphere_scalar_curvature(n, r, u)
        x = r * sphere_chart(phi[None])
        H_gen = _geometry_at(spec, r, x, 1)[1][0]
        assert abs(H_gen / H_exact - 1.0) < 1e-8, (n, r)
        rho_gen = _geometry_at(spec, r, x, 2)[2][0]
        assert abs(rho_gen / rho_exact - 1.0) < 1e-8, (n, r)


def test_criterion_8b_quadrature_exactness():
    for n in DIMS:
        for q in (16, 32):
            quad = SphereQuadrature(n, q)
            err = abs(quad.unit_sphere_weighted_area() - unit_sphere_area(n))
            assert err < 1e-10, (n, q, err)


def _fd_d1(f, h):
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def _fd_d2(f, h):
    return (
        -f(2.0 * h) + 16.0 * f(h) - 30.0 * f(0.0) + 16.0 * f(-h) - f(-2.0 * h)
    ) / (12.0 * h * h)


def test_criterion_8c_laplacian_decomposition():
    # Lap U = Lap_{S_r} U + Hess U(nu, nu) + (n-1)/r * dU/dr within 1e-8,
    # each piece measured by independent finite differences
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        a = float(rng.uniform(0.2, 2.0))

        def U(p):
            return 1.0 + a * float(np.linalg.norm(p)) ** (2 - n)

        x = rng.normal(size=n)
        x *= float(rng.uniform(1.5, 6.0)) / np.linalg.norm(x)
        r = float(np.linalg.norm(x))
        h = 2e-3 * r
        nu = x / r
        lap = 0.0
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            lap += _fd_d2(lambda t: U(x + t * e), h)
        normal_second = _fd_d2(lambda t: U(x + t * nu), h)
        radial_first = _fd_d1(lambda t: U(x + t * nu), h)
        # intrinsic sphere Laplacian: second derivatives along great circles
        tangent_projector = np.eye(n) - np.outer(nu, nu)
        w, V = np.linalg.eigh(tangent_projector)
        frame = V[:, w > 0.5].T
        sphere_lap = sum(
            _fd_d2(
                lambda t: U(r * (math.cos(t / r) * nu + math.sin(t / r) * e)),
                h,
            )
            for e in frame
        )
        residual = lap - (
            sphere_lap + normal_second + (n - 1) / r * radial_first
        )
        assert abs(residual) < 1e-8, (n, a, r, residual)


def test_criterion_8d_mass_scaling_law():
    for n, lam in ((3, 1.5), (4, 2.0), (5, 1.3)):
        base = schwarzschild(n, 1.0)
        est = adm_mass(scaled(base, lam))
        assert est.value == pytest.approx(lam ** (n - 2), rel=1e-3), (n, lam)


def test_criterion_8e_flat_quasilocal_mass_vanishes():
    for n in DIMS:
        for r in (5.0, 50.0):
            assert abs(fg(euclidean(n), r)) < 1e-13, (n, r)
