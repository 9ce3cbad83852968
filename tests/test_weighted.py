import numpy as np
import pytest

from afmass import weighted
from afmass.curvature import scalar_curvature
from afmass.geometry import sample_spheres
from afmass.mass import adm_mass
from afmass.metrics import (
    asymptotically_schwarzschild,
    euclidean,
    metric_at,
    metric_derivatives_at,
    schwarzschild,
    translated,
)
from afmass.shells import shell_mass, shell_metric
from afmass.weighted import (
    DefectReport,
    WeightedNormParams,
    d_operator_at,
    mass_matter_defect,
    mass_via_divergence,
    matter_integral,
    radial_panels,
    weighted_seminorm,
)


class TestDOperator:
    def test_flat_zero(self):
        spec = euclidean(3)
        x = np.array([[2.0, 1.0, 0.5]])
        assert d_operator_at(spec, x) == pytest.approx(0.0, abs=1e-14)

    def test_single_point_returns_scalar(self):
        spec = schwarzschild(3, 1.0)
        out = d_operator_at(spec, np.array([5.0, 0.0, 0.0]))
        assert isinstance(out, float)

    def test_decays_faster_than_curvature_scale(self):
        # Schwarzschild is scalar flat, so D alone carries the mass density;
        # it decays like r^{-n-1} = r^{-4} for n=3
        spec = schwarzschild(3, 1.0)
        d10 = abs(d_operator_at(spec, np.array([10.0, 0.0, 0.0])))
        d20 = abs(d_operator_at(spec, np.array([20.0, 0.0, 0.0])))
        assert 12.0 < d10 / d20 < 20.0


class TestMassViaDivergence:
    @pytest.mark.parametrize("n,m", [(3, 1.0), (4, 0.7)])
    def test_schwarzschild(self, n, m):
        spec = schwarzschild(n, m)
        est = mass_via_divergence(spec, inner=5.0, outer=320.0)
        assert est.value == pytest.approx(m, rel=1e-3)

    def test_agrees_with_flux_route(self):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.3)
        div = mass_via_divergence(spec, inner=5.0, outer=160.0, q=12, radial_q=48)
        flux = adm_mass(spec, radii=(40.0, 80.0, 160.0, 320.0), q=16)
        assert abs(div.value - flux.value) < 2e-3

    @pytest.mark.parametrize("n,i", [(3, 512), (4, 64)])
    def test_default_radii_clear_the_shell(self, n, i):
        est = mass_via_divergence(shell_metric(n, i))
        assert est.radii[0] >= 2.0 * i
        assert est.value == pytest.approx(shell_mass(n), rel=2e-3)

    def test_default_radii_clear_a_translated_shell(self):
        # the shell [256, 512] about -offset lies inside |x| <= 522
        est = mass_via_divergence(translated(shell_metric(3, 512), [10.0, 0.0, 0.0]))
        assert est.radii[0] >= 2.0 * 522.0
        assert est.value == pytest.approx(shell_mass(3), rel=2e-3)

    def test_needs_room(self):
        with pytest.raises(ValueError):
            mass_via_divergence(schwarzschild(3, 1.0), inner=10.0, outer=20.0)


class TestWeightedSeminorm:
    def test_euclidean_zero(self):
        params = WeightedNormParams(tau=1.0, k=2, r_min=1.0, r_max=100.0,
                                    radii_per_decade=8)
        assert weighted_seminorm(euclidean(3), params) == 0.0

    def test_schwarzschild_bounded_at_decay_order(self):
        # g - delta = O(r^{2-n}): tau = n-2 keeps the seminorm bounded
        spec = schwarzschild(3, 1.0)
        p_small = WeightedNormParams(tau=1.0, k=2, r_min=2.0, r_max=200.0,
                                     radii_per_decade=8)
        p_big = WeightedNormParams(tau=1.0, k=2, r_min=2.0, r_max=2000.0,
                                   radii_per_decade=8)
        a = weighted_seminorm(spec, p_small)
        b = weighted_seminorm(spec, p_big)
        assert b == pytest.approx(a, rel=1e-6)

    def test_overweight_grows_with_range(self):
        spec = schwarzschild(3, 1.0)
        p_small = WeightedNormParams(tau=1.5, k=0, r_min=2.0, r_max=200.0,
                                     radii_per_decade=8)
        p_big = WeightedNormParams(tau=1.5, k=0, r_min=2.0, r_max=20000.0,
                                   radii_per_decade=8)
        assert weighted_seminorm(spec, p_big) > 5.0 * weighted_seminorm(spec, p_small)

    def test_relative_seminorm(self):
        spec = schwarzschild(3, 1.0)
        params = WeightedNormParams(tau=1.0, k=1, r_min=2.0, r_max=50.0,
                                    radii_per_decade=8)
        assert weighted_seminorm(spec, params, reference=spec) == 0.0

    def test_rejects_high_order(self):
        with pytest.raises(ValueError):
            weighted_seminorm(
                euclidean(3), WeightedNormParams(tau=1.0, k=3)
            )


class TestMatterDefect:
    def test_scalar_flat_matter_vanishes(self):
        spec = schwarzschild(3, 1.0)
        assert matter_integral(spec, 2.0, 50.0, q=8) == pytest.approx(0.0, abs=1e-9)

    def test_defect_equals_mass_for_vacuum(self):
        rep = mass_matter_defect(schwarzschild(3, 1.0), inner=2.0, outer=50.0, q=8)
        assert rep.defect == pytest.approx(1.0, abs=1e-8)

    def test_default_outer_clears_a_translated_shell(self):
        # the shell [32, 64] about -offset lies inside |x| <= 74
        spec = shell_metric(3, 64)
        centred = mass_matter_defect(spec)
        moved = mass_matter_defect(translated(spec, [10.0, 0.0, 0.0]))
        assert moved.matter == pytest.approx(centred.matter, rel=1e-4)

    def test_defect_report_arithmetic(self):
        rep = DefectReport(mass=2.0, matter=0.5)
        assert rep.defect == 1.5


def _count_evaluations(monkeypatch, spec):
    """Count the calls of spec's jet, by order."""
    calls = {0: 0, 1: 0, 2: 0}

    def counting(x, order, fn=spec.family.jet):
        calls[order] += 1
        return fn(x, order)

    monkeypatch.setattr(spec.family, "jet", counting)
    return calls


def _seminorm_oracle(spec, params, reference):
    """The k = 2 seminorm with each derivative order from its own call."""
    n = spec.n
    worst = 0.0
    for x, _ in sample_spheres(
        n, params.angular_q, params.radii(), False, n ** 4
    ):
        r = np.linalg.norm(x, axis=1)
        terms = [
            metric_at(spec, x) - metric_at(reference, x),
            metric_derivatives_at(spec, x, order=1)
            - metric_derivatives_at(reference, x, order=1),
            metric_derivatives_at(spec, x, order=2)[1]
            - metric_derivatives_at(reference, x, order=2)[1],
        ]
        for k, t in enumerate(terms):
            sup = np.abs(t).reshape(len(r), -1).max(axis=1)
            worst = max(worst, float((r ** (params.tau + k) * sup).max()))
    return worst


class TestOneEvaluationPerBlock:
    def test_seminorm_differentiates_once(self, monkeypatch):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.3)
        reference = schwarzschild(3, 1.0)
        params = WeightedNormParams(tau=2.0, k=2, r_max=10.0,
                                    radii_per_decade=4, angular_q=4)
        expected = _seminorm_oracle(spec, params, reference)
        blocks = len(list(sample_spheres(
            3, params.angular_q, params.radii(), False, 3 ** 4
        )))
        counts = [_count_evaluations(monkeypatch, s) for s in (spec, reference)]
        assert weighted_seminorm(spec, params, reference) == pytest.approx(
            expected, rel=1e-15
        )
        for c in counts:
            assert c == {0: 0, 1: 0, 2: blocks}

    def test_scalar_density_evaluates_the_metric_once(self, monkeypatch):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.3)
        x = np.array([[3.0, 1.0, -2.0], [0.5, 4.0, 1.0]])
        g = metric_at(spec, x)
        expected = scalar_curvature(g, *metric_derivatives_at(spec, x)) * np.sqrt(
            np.linalg.det(g)
        )
        assert np.allclose(weighted._scalar_density(spec, x), expected,
                           rtol=1e-15, atol=0.0)
        calls = _count_evaluations(monkeypatch, spec)
        matter_integral(spec, 2.0, 4.0, q=4, radial_q=8)
        assert calls[2] > 0
        assert calls[0] == calls[1] == 0


def test_radial_panels_split_at_breakpoints():
    panels = radial_panels(1.0, 10.0, breakpoints=(2.0, 5.0, 20.0))
    assert panels == [(1.0, 2.0), (2.0, 5.0), (5.0, 10.0)]
    assert radial_panels(1.0, 10.0) == [(1.0, 10.0)]
