import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass import sequences
from afmass.cone import (
    ConicalSurface,
    EstimatesDisagree,
    capped_cone,
    cone_blow_up_profile,
    cone_mass,
    cone_metric_spec,
    geodesic_curvature_integral,
    perturbed_cone,
    total_gauss_curvature,
)
from afmass.metrics import (
    NotPositiveDefinite,
    metric_jet,
    scaled,
    translated,
)
from afmass.sequences import CONE_EXPERIMENT_KINDS, cone_semicontinuity_experiment

from cone_reference import reference_gauss_curvature
from fd_reference import fd4_metric_derivatives


class TestProfiles:
    def test_cap_is_c2_at_glue(self):
        s = capped_cone(0.7)
        eps = 1e-7
        for fn, tol in ((s.f, 1e-6), (s.df, 1e-5), (s.d2f, 1e-4)):
            below = float(fn(np.array([1.0 - eps]))[0])
            above = float(fn(np.array([1.0 + eps]))[0])
            assert abs(below - above) < tol

    def test_cap_smooth_pole(self):
        s = capped_cone(0.7)
        assert float(s.df(np.array([0.0]))[0]) == pytest.approx(1.0)

    def test_exact_cone_outside(self):
        s = capped_cone(0.6)
        r = np.array([1.5, 4.0])
        assert np.allclose(s.f(r), 0.6 * r)
        assert np.allclose(s.df(r), 0.6)
        assert np.allclose(s.d2f(r), 0.0)

    def test_invalid_opening(self):
        with pytest.raises(ValueError):
            capped_cone(0.0)
        with pytest.raises(ValueError):
            capped_cone(1.5)

    def test_perturbation_derivatives_match_fd(self):
        p = perturbed_cone(0.7, amplitude=0.2, tau=1.0)
        h = 1e-6
        rr = np.array([0.5, 1.5, 3.0])
        fd1 = (p.f(rr + h) - p.f(rr - h)) / (2 * h)
        assert np.allclose(fd1, p.df(rr), atol=1e-9)
        fd2 = (p.f(rr + h) - 2 * p.f(rr) + p.f(rr - h)) / h ** 2
        assert np.allclose(fd2, p.d2f(rr), atol=1e-3)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_perturbation_must_decay(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            perturbed_cone(0.5, tau=tau)

    def test_perturbation_preserves_opening(self):
        p = perturbed_cone(0.7, amplitude=0.2, tau=1.0)
        r = np.array([1000.0])
        assert float(p.f(r)[0]) / 1000.0 == pytest.approx(0.7, abs=1e-3)


class TestCurvature:
    def test_closed_vs_generic(self):
        # total_gauss_curvature integrates the closed K = -f''/f; integrate
        # the generic K f on the same panels (0, min(r, 1)) and (1, r)
        s = capped_cone(0.7)
        rr = np.array([0.3, 0.7, 0.95, 2.0])
        xg, wg = np.polynomial.legendre.leggauss(64)

        def generic_total(r):
            total = 0.0
            for lo, hi in ((0.0, min(r, 1.0)), (1.0, max(r, 1.0))):
                t = 0.5 * (hi - lo) * (xg + 1.0) + lo
                K = reference_gauss_curvature(s, t)
                total += 0.5 * (hi - lo) * float(np.dot(wg, K * s.f(t)))
            return 2.0 * math.pi * total

        closed = [total_gauss_curvature(s, r) for r in rr]
        generic = [generic_total(r) for r in rr]
        assert np.allclose(closed, generic, atol=1e-6)

    def test_cap_concentrates_positive_curvature(self):
        # total curvature of the cap region equals the full angle defect
        s = capped_cone(0.7)
        assert total_gauss_curvature(s, 1.0) == pytest.approx(
            2.0 * math.pi * 0.3, rel=1e-12
        )
        assert float(reference_gauss_curvature(s, np.array([0.1]))[0]) > 0.0

    def test_negative_profile_rejected(self):
        # f = 0.5 r - 10 r^-1 (1 - r^-2)^3 < 0 near r = 2
        with pytest.raises(NotPositiveDefinite):
            total_gauss_curvature(perturbed_cone(0.5, amplitude=-10.0), 4.0)

    def test_flat_outside_cap(self):
        s = capped_cone(0.7)
        assert np.allclose(reference_gauss_curvature(s, np.array([2.0, 5.0])), 0.0)


class TestGaussBonnet:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("r", [2.0, 8.0, 32.0])
    def test_residual_capped(self, alpha, r):
        s = capped_cone(alpha)
        resid = (
            total_gauss_curvature(s, r)
            + geodesic_curvature_integral(s, r)
            - 2.0 * math.pi
        )
        assert abs(resid) < 1e-8

    def test_residual_perturbed(self):
        p = perturbed_cone(0.7, amplitude=0.2, tau=1.0)
        for r in (8.0, 32.0):
            resid = (
                total_gauss_curvature(p, r)
                + geodesic_curvature_integral(p, r)
                - 2.0 * math.pi
            )
            assert abs(resid) < 1e-8

    def test_turning_is_flat_cone_angle(self):
        # outside the cap the circle turns by exactly 2 pi alpha
        s = capped_cone(0.7)
        assert geodesic_curvature_integral(s, 2.0) == pytest.approx(
            2.0 * math.pi * 0.7, rel=1e-12
        )


class TestConeMass:
    @given(st.floats(0.2, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_angle_defect(self, alpha):
        est = cone_mass(capped_cone(alpha))
        assert est.value == pytest.approx(1.0 - alpha, abs=1e-10)

    def test_estimator_agreement_enforced(self):
        # both routes agree to quadrature precision on regular surfaces
        est = cone_mass(capped_cone(0.5))
        assert est.value == pytest.approx(0.5, abs=1e-10)

    def test_inconsistent_surface_detected(self):
        # a turning angle that is not f' breaks the Gauss-Bonnet agreement
        s = capped_cone(0.7)

        def jet(r, order):
            out = s.jet(r, order)
            if order >= 1:
                out[1] = out[1] + 0.1
            return out

        broken = ConicalSurface(jet, s.alpha)
        with pytest.raises(EstimatesDisagree):
            cone_mass(broken)

    def test_nan_route_detected(self):
        # a NaN on the curvature route past the first radius, which
        # max() over the differences would drop
        s = capped_cone(0.7)

        def jet(r, order):
            out = s.jet(r, order)
            if order == 2:
                out[2] = np.where(np.asarray(r) > 10.0, np.nan, out[2])
            return out

        broken = ConicalSurface(jet, s.alpha)
        with pytest.raises(EstimatesDisagree, match="r = 16"):
            cone_mass(broken)

    # cone_mass for openings down to the smallest the CLI accepts:
    # (value, error, raw) at the default radii 4, 8, 16, 32
    RECORDED = {
        "capped 0.7": (0.29999999999999993, 2.3821432867820566e-16,
                       (0.30000000000000004,) * 4),
        "perturbed 0.7": (0.30026160916043665, 0.00037954419387323257,
                          (0.3030899047851563, 0.3013484537601471,
                           0.3003769813338295, 0.30009679933946254)),
        "capped 1e-4": (0.9998999999999997, 7.594561506268143e-16, (0.9999,) * 4),
        "perturbed 1e-4": (1.0001616091604362, 0.00037954419387283017,
                           (1.0029899047851563, 1.0012484537601472,
                            1.0002769813338295, 0.9999967993394625)),
        "capped 1e-300": (0.9999999999999998, 4.764286573564113e-16, (1.0,) * 4),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_recorded_values(self, name):
        kind, alpha = name.split()
        surface = {"capped": capped_cone, "perturbed": perturbed_cone}[kind](float(alpha))
        value, error, raw = self.RECORDED[name]
        est = cone_mass(surface)
        assert abs(est.value - value) <= 1e-12
        assert abs(est.error - error) <= 1e-12
        assert np.allclose(est.raw, raw, rtol=0.0, atol=1e-12)

    def test_perturbed_mass_unchanged(self):
        est = cone_mass(perturbed_cone(0.7, amplitude=0.1, tau=1.0),
                        radii=(8.0, 16.0, 32.0, 64.0))
        assert est.value == pytest.approx(0.3, abs=1e-4)


CONES = (capped_cone(0.7), perturbed_cone(0.6, amplitude=0.2, tau=1.0))
CONE_IDS = ("capped", "perturbed")


def _cone_points(seed=0):
    # inside the cap, near its edge r = 1, and out on the cone
    r = np.array([0.3, 0.6, 0.9, 1.5, 3.0, 7.0, 20.0, 100.0])
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, len(r))
    return r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


class TestCartesianWrapper:
    def test_metric_rotation_structure(self):
        alpha = 0.7
        spec = cone_metric_spec(capped_cone(alpha))
        x = np.array([[2.0, 1.0]])
        th = math.atan2(1.0, 2.0)
        R = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        expected = R @ np.diag([1.0, alpha ** 2]) @ R.T
        assert np.allclose(metric_jet(spec, x, 0)[0][0], expected, atol=1e-14)

    @pytest.mark.parametrize("surface", CONES, ids=CONE_IDS)
    def test_jet_matches_fd4_reference(self, surface):
        spec = cone_metric_spec(surface)
        assert spec.derivative_mode == "analytic"
        x = _cone_points()
        jet = metric_jet(spec, x, 2)
        for p, (g, dg, d2g) in enumerate(zip(*jet)):
            # a step of r / 500 keeps each stencil on one side of the cap edge
            r = np.linalg.norm(x[p])
            ref = fd4_metric_derivatives(spec.family.metric, x[p:p + 1], 2e-3 * r)
            for d, want in zip((g, dg, d2g), ref):
                assert np.abs(d - want[0]).max() <= 1e-8 * np.abs(want[0]).max()

    @pytest.mark.parametrize("surface", CONES, ids=CONE_IDS)
    def test_jet_matches_fd_mode(self, surface):
        # each point against its own scale
        for p in _cone_points():
            analytic = metric_jet(cone_metric_spec(surface), p, 2)
            fd = metric_jet(cone_metric_spec(surface, derivative_mode="fd"), p, 2)
            assert np.array_equal(fd[0], analytic[0])
            for d, want, rel in zip(fd[1:], analytic[1:], (1e-8, 1e-6)):
                assert np.abs(d - want).max() <= rel * np.abs(want).max()

    def test_scaled_and_translated(self):
        base = cone_metric_spec(perturbed_cone(0.6, amplitude=0.2, tau=1.0))
        x = _cone_points()
        want = metric_jet(base, x, 2)
        offset = np.array([0.3, -0.2])
        for spec, y, lam in ((scaled(base, 2.5), 2.5 * x, 2.5),
                             (translated(base, offset), x - offset, 1.0)):
            assert spec.derivative_mode == "analytic"
            for k, (d, w) in enumerate(zip(metric_jet(spec, y, 2), want)):
                assert np.abs(lam ** k * d - w).max() <= 1e-12 * np.abs(w).max()


class TestConeExperiments:
    def test_blow_up_drop(self):
        rep = cone_semicontinuity_experiment("blow_up", alpha=0.7)
        assert rep.verdict
        assert rep.drop == pytest.approx(0.3, abs=1e-10)
        assert rep.limit_mass == 0.0
        assert rep.exponent == pytest.approx(2.0, rel=0.15)

    def test_escaping_no_drop(self):
        rep = cone_semicontinuity_experiment("escaping", alpha=0.7)
        assert rep.verdict
        assert rep.drop == pytest.approx(0.0, abs=1e-4)
        assert rep.limit_mass == pytest.approx(0.3)
        assert rep.exponent == pytest.approx(2.0, rel=0.15)

    def test_constant_equality(self):
        rep = cone_semicontinuity_experiment("constant", alpha=0.7)
        assert rep.verdict
        assert rep.drop == 0.0
        assert all(d == 0.0 for d in rep.distances)

    @pytest.mark.parametrize("kind", ["blow_up", "escaping"])
    def test_large_index(self, kind):
        # cone_mass at radii 4e6 .. 3.2e7 around a far-out window
        rep = cone_semicontinuity_experiment(kind, alpha=0.7, indices=(10 ** 6,))
        assert abs(rep.masses[0] - 0.30000000000000004) <= 1e-12

    def test_kinds(self):
        assert set(CONE_EXPERIMENT_KINDS) == {"blow_up", "escaping", "constant"}
        with pytest.raises(ValueError):
            cone_semicontinuity_experiment("nope")

    @pytest.mark.parametrize("kind, name", [("constant", "cone_mass"),
                                            ("blow_up", "capped_cone")])
    def test_one_surface_for_every_member(self, monkeypatch, kind, name):
        # the constant mass and the blow-up's base cap are built once
        calls = []
        original = getattr(sequences, name)

        def counting(*args, **kw):
            calls.append(args)
            return original(*args, **kw)

        monkeypatch.setattr(sequences, name, counting)
        rep = cone_semicontinuity_experiment(kind, alpha=0.7, indices=(4, 8, 16))
        assert len(calls) == 1
        assert len(rep.masses) == 3

    @pytest.mark.parametrize("kind", ["blow_up", "escaping", "constant"])
    @pytest.mark.parametrize("indices", [(4, 4), (16, 8, 4, 2)])
    def test_indices_must_increase(self, kind, indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            cone_semicontinuity_experiment(kind, alpha=0.7, indices=indices)

    def test_blow_up_profile_rescaling(self):
        s = capped_cone(0.7)
        prof = cone_blow_up_profile(s, 4.0)
        r = np.array([2.0])
        assert float(prof.f(r)[0]) == pytest.approx(4.0 * float(s.f(r / 4.0)[0]))
