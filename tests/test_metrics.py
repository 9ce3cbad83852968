import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass.metrics import (
    NotPositiveDefinite,
    SingularPoint,
    StepTooLarge,
    asymptotically_schwarzschild,
    conformally_flat,
    curvature_at,
    euclidean,
    harmonic_dipole_field,
    harmonically_flat,
    metric_at,
    metric_derivatives_at,
    metric_from_json,
    metric_to_json,
    scalar_curvature_at,
    scaled,
    schwarzschild,
    translated,
)


class TestSchwarzschildValues:
    def test_metric_value_on_axis(self):
        spec = schwarzschild(3, 1.0)
        g = metric_at(spec, np.array([10.0, 0.0, 0.0]))
        # (1 + 1/20)^4 = 1.21550625
        assert g[0, 0] == pytest.approx(1.21550625, rel=1e-14)
        assert g[1, 1] == pytest.approx(1.21550625, rel=1e-14)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_radial_derivative_on_axis(self):
        spec = schwarzschild(3, 1.0)
        dg = metric_derivatives_at(spec, np.array([10.0, 0.0, 0.0]), order=1)
        # d/dr (1 + 1/(2r))^4 at r=10: 4 (1.05)^3 (-1/200)
        assert dg[0, 0, 0] == pytest.approx(-0.0231525, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_scalar_flat(self, n):
        spec = schwarzschild(n, 0.8)
        x = np.array([[3.0] + [0.5] * (n - 1), [1.0] * n])
        R = scalar_curvature_at(spec, x)
        assert np.allclose(R, 0.0, atol=1e-7)

    def test_mass_hint(self):
        assert schwarzschild(5, 2.5).family.mass_hint == 2.5


class TestDerivativeModes:
    def test_fd_matches_analytic_first_order(self):
        xs = np.array([[4.0, 1.0, -2.0]])
        a = schwarzschild(3, 1.0)
        f = schwarzschild(3, 1.0, derivative_mode="fd")
        da = metric_derivatives_at(a, xs, order=1)
        df = metric_derivatives_at(f, xs, order=1)
        assert np.allclose(da, df, atol=1e-8)

    def test_fd_matches_analytic_second_order(self):
        xs = np.array([[4.0, 1.0, -2.0]])
        a = schwarzschild(3, 1.0)
        f = schwarzschild(3, 1.0, derivative_mode="fd")
        _, d2a = metric_derivatives_at(a, xs, order=2)
        _, d2f = metric_derivatives_at(f, xs, order=2)
        assert np.allclose(d2a, d2f, atol=1e-5)

    def test_stencil_guard(self):
        spec = schwarzschild(3, 1.0, inner_radius=1.0, derivative_mode="fd",
                             fd_step=0.5)
        with pytest.raises(StepTooLarge):
            metric_derivatives_at(spec, np.array([1.2, 0.0, 0.0]), order=1)

    def test_stencil_guard_translated(self):
        # the translated chart keeps the base's excluded ball, moved by -offset
        base = schwarzschild(3, 1.0, inner_radius=1.0, derivative_mode="fd",
                             fd_step=0.5)
        offset = np.array([5.0, 0.0, 0.0])
        spec = translated(base, offset)
        with pytest.raises(StepTooLarge):
            metric_derivatives_at(spec, np.array([1.2, 0.0, 0.0]) - offset,
                                  order=1)
        with pytest.raises(SingularPoint):
            metric_at(spec, np.array([0.5, 0.0, 0.0]) - offset)


class TestPointChecks:
    def test_singular_origin(self):
        spec = schwarzschild(3, 1.0)
        with pytest.raises(SingularPoint):
            metric_at(spec, np.zeros(3))

    def test_non_positive_conformal_factor(self):
        from afmass.metrics import NonPositiveConformalFactor, RadialProfile

        prof = RadialProfile(
            u=lambda r: 1.0 - 2.0 / r,
            du=lambda r: 2.0 / r ** 2,
            d2u=lambda r: -4.0 / r ** 3,
            tail_coefficient=-2.0,
        )
        spec = conformally_flat(3, prof)
        with pytest.raises(NonPositiveConformalFactor):
            metric_at(spec, np.array([1.0, 0.0, 0.0]))

    def test_not_positive_definite(self):
        # large negative tensor perturbation makes g indefinite near origin
        spec = asymptotically_schwarzschild(3, 1.0, c=-50.0)
        with pytest.raises(NotPositiveDefinite):
            metric_at(spec, np.array([1.0, 0.0, 0.0]))

    def test_euclidean_everywhere(self):
        spec = euclidean(4)
        g = metric_at(spec, np.array([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(g, np.eye(4))


class TestHarmonicDipole:
    @given(st.floats(0.1, 1.0), st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_harmonic(self, a, b):
        field = harmonic_dipole_field(3, a, b)
        x = np.array([[2.0, 1.0, -0.5], [4.0, -3.0, 0.2]])
        lap = np.trace(field.hess(x), axis1=1, axis2=2)
        assert np.allclose(lap, 0.0, atol=1e-10)

    def test_gradient_matches_fd(self):
        field = harmonic_dipole_field(3, 0.5, 0.3)
        x = np.array([[3.0, 1.0, -2.0]])
        h = 1e-6
        for i in range(3):
            xp = x.copy()
            xp[0, i] += h
            xm = x.copy()
            xm[0, i] -= h
            fd = (field.value(xp) - field.value(xm)) / (2 * h)
            assert field.grad(x)[0, i] == pytest.approx(fd[0], abs=1e-9)


class TestWrappers:
    def test_scaled_metric_values(self):
        # dilated chart: components at 2x match the base components at x
        base = schwarzschild(3, 1.0)
        spec = scaled(base, 2.0)
        x = np.array([5.0, 0.0, 0.0])
        assert np.allclose(metric_at(spec, 2.0 * x), metric_at(base, x))

    def test_scaled_mass_hint(self):
        base = schwarzschild(4, 1.0)
        # mass scales like lambda^{n-2}
        assert scaled(base, 3.0).family.mass_hint == pytest.approx(9.0)

    def test_translated_metric_values(self):
        base = schwarzschild(3, 1.0)
        spec = translated(base, np.array([1.0, 2.0, 3.0]))
        x = np.array([4.0, 0.0, 0.0])
        assert np.allclose(
            metric_at(spec, x), metric_at(base, x + np.array([1.0, 2.0, 3.0]))
        )

    def test_asymptotically_schwarzschild_decay(self):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.5)
        sch = schwarzschild(3, 1.0)
        for r, tol in ((10.0, 2e-2), (100.0, 2e-4)):
            x = np.array([r, 0.0, 0.0])
            diff = np.abs(metric_at(spec, x) - metric_at(sch, x)).max()
            assert diff < tol


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            euclidean(3),
            schwarzschild(4, 1.5),
            harmonically_flat(3, 0.25),
            asymptotically_schwarzschild(3, 1.0, c=0.2),
        ],
        ids=["euclidean", "schwarzschild", "hf", "asym"],
    )
    def test_named_families(self, spec):
        doc = metric_to_json(spec)
        back = metric_from_json(doc)
        x = np.array([[3.0] + [1.0] * (spec.n - 1)])
        assert np.allclose(metric_at(spec, x), metric_at(back, x))
        assert metric_to_json(back) == doc

    def test_wrappers(self):
        spec = translated(scaled(schwarzschild(3, 1.0), 2.0), [0.0, 1.0, 0.0])
        back = metric_from_json(metric_to_json(spec))
        x = np.array([[4.0, 2.0, 1.0]])
        assert np.allclose(metric_at(spec, x), metric_at(back, x))

    def test_shell(self):
        from afmass.shells import shell_metric

        spec = shell_metric(3, 2)
        back = metric_from_json(metric_to_json(spec))
        x = np.array([[1.5, 0.0, 0.0], [3.0, 1.0, 0.0]])
        assert np.allclose(metric_at(spec, x), metric_at(back, x), atol=1e-12)

    def test_cone(self):
        from afmass.cone import capped_cone, cone_metric_spec

        spec = cone_metric_spec(capped_cone(0.7))
        back = metric_from_json(metric_to_json(spec))
        x = np.array([[2.0, 1.0]])
        assert np.allclose(metric_at(spec, x), metric_at(back, x))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            metric_from_json({"n": 3, "family": "Nope", "params": {}})


def test_curvature_at_bundle():
    spec = schwarzschild(3, 1.0)
    pc = curvature_at(spec, np.array([5.0, 0.0, 0.0]))
    assert pc.christoffel.shape == (3, 3, 3)
    assert pc.ricci.shape == (3, 3)
    assert pc.scalar == pytest.approx(0.0, abs=1e-9)
