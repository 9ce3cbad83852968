import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass.curvature import scalar_curvature
from afmass.metrics import (
    Family,
    NonPositiveConformalFactor,
    NotPositiveDefinite,
    RadialProfile,
    ScalarField,
    SingularPoint,
    StepTooLarge,
    asymptotically_schwarzschild,
    conformally_flat,
    euclidean,
    harmonic_dipole_field,
    harmonically_flat,
    mass_vector,
    metric_derivatives_at,
    metric_from_json,
    metric_jet,
    metric_to_json,
    scaled,
    schwarzschild,
    translated,
)
from afmass.shells import shell_metric

from jet_reference import jet_reference, mass_vector_reference


class TestSchwarzschildValues:
    def test_metric_value_on_axis(self):
        spec = schwarzschild(3, 1.0)
        g = metric_jet(spec, np.array([10.0, 0.0, 0.0]), 0)[0]
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
        R = scalar_curvature(metric_jet(spec, x, 0)[0], *metric_derivatives_at(spec, x))
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
            metric_jet(spec, np.array([0.5, 0.0, 0.0]) - offset, 0)[0]


def _stencil(n):
    """Metric evaluations per node of one mixed second-order FD stencil."""
    return 1 + 2 * n + 2 * n * (n - 1)


JET_MODES = {
    "analytic": lambda: asymptotically_schwarzschild(3, 1.0, c=0.3),
    "fd": lambda: asymptotically_schwarzschild(3, 1.0, c=0.3, derivative_mode="fd"),
}


class TestMetricJet:
    @pytest.mark.parametrize("mode", sorted(JET_MODES))
    @pytest.mark.parametrize("x", [
        np.array([3.0, 1.0, -2.0]),
        np.array([[3.0, 1.0, -2.0], [0.5, 4.0, 1.0], [-6.0, 0.2, 0.7]]),
    ], ids=["single", "batch"])
    def test_equals_the_two_entry_points(self, mode, x):
        spec = JET_MODES[mode]()
        g = metric_jet(spec, x, 0)[0]
        dg = metric_derivatives_at(spec, x, order=1)
        derivs = metric_derivatives_at(spec, x, order=2)
        expected = {0: [g], 1: [g, dg], 2: [g, *derivs]}
        for order, want in expected.items():
            got = metric_jet(spec, x, order)
            assert len(got) == order + 1
            for k, (a, b) in enumerate(zip(got, want)):
                assert a.shape == x.shape[:-1] + (3,) * (k + 2)
                assert np.array_equal(a, b)
        assert all(np.array_equal(a, b)
                   for a, b in zip(metric_jet(spec, x), expected[2]))

    # order 0 is the centre alone; g of a higher order is the first centre
    @pytest.mark.parametrize("order,per_node",
                             [(0, 1), (1, _stencil(3)), (2, 2 * _stencil(3))])
    def test_fd_evaluates_one_stencil_per_order(self, monkeypatch, order, per_node):
        n, count = 3, 5
        spec = schwarzschild(n, 1.0, derivative_mode="fd")
        rows = []

        def counting(x, fn=spec.family.metric):
            rows.append(len(x))
            return fn(x)

        monkeypatch.setattr(spec.family, "metric", counting)
        x = 30.0 + np.random.default_rng(0).uniform(size=(count, n))
        metric_jet(spec, x, order)
        assert sum(rows) == count * per_node

    def test_same_errors(self):
        with pytest.raises(SingularPoint):
            metric_jet(schwarzschild(3, 1.0), np.zeros(3))
        fd = schwarzschild(3, 1.0, inner_radius=1.0, derivative_mode="fd",
                           fd_step=0.5)
        for order in (1, 2):
            with pytest.raises(StepTooLarge):
                metric_jet(fd, np.array([1.2, 0.0, 0.0]), order)
        # g = 1.5^4 I - 25 e1 e1 at x = (1, 0, 0)
        x = np.array([1.0, 0.0, 0.0])
        for mode in ("analytic", "fd"):
            indefinite = asymptotically_schwarzschild(3, 1.0, c=-50.0,
                                                      derivative_mode=mode)
            for order in (0, 1, 2):
                with pytest.raises(NotPositiveDefinite):
                    metric_jet(indefinite, x, order)
            # the family checks g, so the derivatives alone are checked too
            for order in (1, 2):
                with pytest.raises(NotPositiveDefinite):
                    metric_derivatives_at(indefinite, x, order)

    def test_fd_stencil_reach_per_order(self):
        # order 1 reaches 2 h1 = 1.2e-5 past x, order 2 reaches 2 h2 = 2.4e-4
        spec = schwarzschild(3, 1.0, inner_radius=1.0, derivative_mode="fd")
        x = np.array([1.0 + 1e-4, 0.0, 0.0])
        dg = metric_jet(spec, x, 1)[1]
        assert dg.shape == (3, 3, 3) and np.all(np.isfinite(dg))
        with pytest.raises(StepTooLarge):
            metric_jet(spec, x, 2)

    def test_fd_explicit_step_evaluates_one_stencil(self, monkeypatch):
        # h1 == h2: g, dg and d2g all come from one stencil
        spec = schwarzschild(3, 1.0, derivative_mode="fd", fd_step=1e-4)
        rows = []

        def counting(x, fn=spec.family.metric):
            rows.append(len(x))
            return fn(x)

        monkeypatch.setattr(spec.family, "metric", counting)
        jet = metric_jet(spec, np.array([30.0, 1.0, -2.0]), 2)
        assert sum(rows) == _stencil(3) == 19
        analytic = metric_jet(schwarzschild(3, 1.0), np.array([30.0, 1.0, -2.0]), 2)
        assert np.allclose(jet[1], analytic[1], atol=1e-9)
        assert np.allclose(jet[2], analytic[2], atol=1e-6)

    def test_fd_default_steps_are_per_point(self):
        # a point's fd jet does not depend on the other points of its call
        n = 4
        x = np.random.default_rng(11).normal(size=(12, n))
        x *= (np.geomspace(0.8, 100.0, 12) / np.linalg.norm(x, axis=1))[:, None]
        spec = asymptotically_schwarzschild(n, 1.0, c=0.3, derivative_mode="fd")
        jet = metric_jet(spec, x, 2)
        for i, p in enumerate(x):
            assert all(np.array_equal(d[i], e)
                       for d, e in zip(jet, metric_jet(spec, p, 2)))
        analytic = metric_jet(asymptotically_schwarzschild(n, 1.0, c=0.3), x, 2)
        for d, want, rel in zip(jet[1:], analytic[1:], (1e-8, 1e-6)):
            assert np.abs(d - want).max() <= rel * np.abs(want).max()

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            metric_jet(schwarzschild(3, 1.0), np.array([3.0, 0.0, 0.0]), 3)


class TestOneJet:
    def test_conformal_field_evaluated_once(self, monkeypatch):
        field = harmonic_dipole_field(3, 0.5, 0.2)
        calls = {"value": 0, "grad": 0, "hess": 0}
        for name in calls:
            def counting(x, fn=getattr(field, name), name=name):
                calls[name] += 1
                return fn(x)
            monkeypatch.setattr(field, name, counting)
        spec = conformally_flat(3, field)
        x = np.array([[3.0, 1.0, -2.0], [0.5, 4.0, 1.0]])
        metric_derivatives_at(spec, x, 2)
        assert calls == {"value": 1, "grad": 1, "hess": 1}

    def test_asymptotically_schwarzschild_metric_builds_no_hessian(self, monkeypatch):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.3)
        orders = []
        for family in (spec.family, spec.family.base):
            def recording(x, order, fn=family.jet):
                orders.append(order)
                return fn(x, order)
            monkeypatch.setattr(family, "jet", recording)
        profile = spec.family.base.radial_profile
        profile_orders = []

        def profile_recording(r, order, fn=profile.jet):
            profile_orders.append(order)
            return fn(r, order)

        monkeypatch.setattr(profile, "jet", profile_recording)
        metric_jet(spec, np.array([[3.0, 1.0, -2.0], [0.5, 4.0, 1.0]]), 0)[0]
        assert orders == [0, 0]
        assert max(profile_orders) == 0


def _random_direction(n, seed=5):
    B = np.random.default_rng(seed).normal(size=(n, n))
    return B + B.T


# every analytic family that builds, scales, adds into or shifts a jet
JET_FAMILIES = {
    "Schwarzschild": lambda n: schwarzschild(n, 1.3),
    "ScalarField": lambda n: conformally_flat(n, harmonic_dipole_field(n, 0.5, 0.2)),
    "AS": lambda n: asymptotically_schwarzschild(n, 1.0, c=0.3),
    "AS-full-direction": lambda n: asymptotically_schwarzschild(
        n, 1.0, c=0.3, direction=_random_direction(n)),
    "Scaled-AS": lambda n: scaled(asymptotically_schwarzschild(n, 1.0, c=0.3), 2.5),
    "Translated-Scaled-shell": lambda n: translated(
        scaled(shell_metric(n, 2), 1.5), np.linspace(0.5, -0.7, n)),
}


def _cone():
    """The analytic 2-d cone, a family without a closed mass vector."""
    from afmass.cone import cone_metric_spec, perturbed_cone

    return cone_metric_spec(perturbed_cone(0.6, amplitude=0.2, tau=1.0))


def _jet_points(n, count=40, seed=3):
    # points at radii 0.7..30: inside, across and outside the shell support
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, n))
    return x * (np.geomspace(0.7, 30.0, count) / np.linalg.norm(x, axis=1))[:, None]


class TestJetInPlace:
    @pytest.mark.parametrize("name", sorted(JET_FAMILIES))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_full_size_reference(self, name, n):
        family = JET_FAMILIES[name](n).family
        x = _jet_points(n)
        for order in (0, 1, 2):
            jet = family.jet(x, order)
            ref = jet_reference(family, x, order)
            assert len(jet) == len(ref) == order + 1
            for k, (d, r) in enumerate(zip(jet, ref)):
                assert d.shape == r.shape == (len(x),) + (n,) * (k + 2)
                scale = np.abs(r).max()
                assert np.abs(d - r).max() <= 1e-15 * scale, (order, k)

    @pytest.mark.parametrize("name", sorted(JET_FAMILIES) + ["Euclidean", "Cone2D"])
    def test_caller_owns_the_arrays(self, name):
        spec = {"Euclidean": euclidean, "Cone2D": lambda n: _cone(),
                **JET_FAMILIES}[name](4)
        x = _jet_points(spec.n, count=6)
        first = spec.family.jet(x, 2)
        second = spec.family.jet(x, 2)
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)
        kept = [d.copy() for d in second]
        for d in first:
            d += 1.0
        for d, k in zip(spec.family.jet(x, 2), kept):
            assert np.array_equal(d, k)


# every family with its own mass vector, and the dense-jet default
MASS_VECTOR_FAMILIES = {
    **JET_FAMILIES,
    "Euclidean": euclidean,
    "AS-full-direction-negative": lambda n: asymptotically_schwarzschild(
        n, 1.0, c=-0.3, direction=_random_direction(n)),
}


def _assert_traces_the_reference(got, family, x, order):
    ref = mass_vector_reference(family, x, order)
    # the scale of the traced entries: div V cancels to roundoff where
    # F = U^{4/(n-2)} is harmonic (Schwarzschild at n = 6)
    scales = [np.abs(d).max() for d in jet_reference(family, x, order)[1:]]
    assert len(got) == len(ref) == order
    for k, (d, r, scale) in enumerate(zip(got, ref, scales)):
        assert d.shape == r.shape == (len(x),) + (x.shape[1],) * (1 - k)
        assert np.abs(d - r).max() <= 1e-14 * scale, (order, k)


class TestMassVector:
    """mass_vector: V_j = d_i g_ij - d_j g_ii and div V, without a dense jet."""

    @pytest.mark.parametrize("name", sorted(MASS_VECTOR_FAMILIES))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_dense_jet_traces(self, name, n):
        spec = MASS_VECTOR_FAMILIES[name](n)
        x = _jet_points(n)
        for order in (1, 2):
            _assert_traces_the_reference(
                mass_vector(spec, x, order), spec.family, x, order)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_default_traces_the_dense_jet(self, n):
        # the base-class route of a family without a closed mass vector: the
        # cone at n = 2, else AS with a full direction
        family = (_cone() if n == 2 else JET_FAMILIES["AS-full-direction"](n)).family
        x = _jet_points(n)
        for order in (1, 2):
            _assert_traces_the_reference(
                Family.mass_vector(family, x, order), family, x, order)

    def test_fd_traces_the_stencil(self):
        x = 4.0 * _jet_points(4, count=8)[4:]
        analytic = mass_vector(asymptotically_schwarzschild(4, 1.0, c=0.3), x, 2)
        fd = mass_vector(
            asymptotically_schwarzschild(4, 1.0, c=0.3, derivative_mode="fd"), x, 2)
        assert np.allclose(fd[0], analytic[0], atol=1e-8)
        assert np.allclose(fd[1], analytic[1], atol=1e-5)

    def test_single_point(self):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.3)
        x = np.array([3.0, 1.0, -2.0])
        V, D = mass_vector(spec, x, 2)
        batch = mass_vector(spec, x[None], 2)
        assert V.shape == (3,) and np.ndim(D) == 0
        assert np.array_equal(V, batch[0][0]) and D == batch[1][0]

    def test_rejects_other_orders(self):
        for order in (0, 3):
            with pytest.raises(ValueError):
                mass_vector(schwarzschild(3, 1.0), np.array([3.0, 0.0, 0.0]), order)

    @pytest.mark.parametrize("case", [
        "singular", "conformal-factor", "indefinite", "indefinite-fd",
        "indefinite-scaled", "indefinite-translated", "stencil",
    ])
    def test_same_errors_as_metric_jet(self, case):
        # g = 1.5^4 I - 25 e1 e1 at the base's x = (1, 0, 0)
        indefinite = asymptotically_schwarzschild(3, 1.0, c=-50.0)
        spec, x, error = {
            "singular": (schwarzschild(3, 1.0), [0.0, 0.0, 0.0], SingularPoint),
            # U = 1 - 0.5 / 0.1 = -4
            "conformal-factor": (schwarzschild(3, -1.0), [0.1, 0.0, 0.0],
                                 NonPositiveConformalFactor),
            "indefinite": (indefinite, [1.0, 0.0, 0.0], NotPositiveDefinite),
            "indefinite-fd": (
                asymptotically_schwarzschild(3, 1.0, c=-50.0, derivative_mode="fd"),
                [1.0, 0.0, 0.0], NotPositiveDefinite),
            "indefinite-scaled": (scaled(indefinite, 2.0), [2.0, 0.0, 0.0],
                                  NotPositiveDefinite),
            "indefinite-translated": (translated(indefinite, [1.0, 0.0, 0.0]),
                                      [0.0, 0.0, 0.0], NotPositiveDefinite),
            "stencil": (schwarzschild(3, 1.0, inner_radius=1.0, derivative_mode="fd",
                                      fd_step=0.5), [1.2, 0.0, 0.0], StepTooLarge),
        }[case]
        for order in (1, 2):
            with pytest.raises(error):
                metric_jet(spec, np.array(x), order)
            with pytest.raises(error):
                mass_vector(spec, np.array(x), order)


class TestPositiveDefinite:
    """Each family's jet keeps g positive definite or raises."""

    def test_conformal_factor_underflow(self):
        # U = 1e-100 > 0, but U^4 underflows to 0
        prof = RadialProfile(
            lambda r, order: [np.full_like(r, 1e-100)] + [np.zeros_like(r)] * order)
        with pytest.raises(NotPositiveDefinite):
            metric_jet(conformally_flat(3, prof), np.array([2.0, 0.0, 0.0]), 0)[0]

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_conformal_jet_overflow(self, action):
        # U = 1 everywhere, but grad U overflows at the second point: the
        # same error whatever the warnings filter, naming that point
        field = ScalarField(
            lambda x: np.ones(len(x)),
            lambda x: np.where(x[:, :1] > 2.5, 1e300, 0.0) * 1e300 * np.ones_like(x),
            lambda x: np.zeros((len(x), 3, 3)),
        )
        x = np.array([[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(NotPositiveDefinite, match=r"at \[3\.0, 0\.0, 0\.0\]"):
                metric_jet(conformally_flat(3, field), x, 1)

    def test_asymptotically_schwarzschild_matches_eigenvalues(self):
        # the check is exactly "lowest eigenvalue of g > 0"
        direction = _random_direction(3)
        x = _jet_points(3, count=200, seed=8)
        for c in (-40.0, -10.0, 10.0, 40.0):
            spec = asymptotically_schwarzschild(3, 1.0, c=c, direction=direction)
            family = spec.family
            g = family.base.jet(x, 0)[0] + c * (
                (1.0 + np.einsum("ni,ni->n", x, x)) ** -1.0
            )[:, None, None] * family.B
            lowest = np.linalg.eigvalsh(g)[:, 0]
            good = lowest > 1e-12
            assert 0 < good.sum() < len(x)
            assert np.allclose(family.jet(x[good], 0)[0], g[good])
            for p in x[lowest < -1e-12]:
                with pytest.raises(NotPositiveDefinite):
                    family.jet(p[None], 0)

    def test_wrappers_inherit_the_check(self):
        # both points are the base's x = (1, 0, 0)
        base = asymptotically_schwarzschild(3, 1.0, c=-50.0)
        for spec, x in ((scaled(base, 2.0), [2.0, 0.0, 0.0]),
                        (translated(base, [1.0, 0.0, 0.0]), [0.0, 0.0, 0.0])):
            with pytest.raises(NotPositiveDefinite):
                metric_jet(spec, np.array(x), 1)

    def test_cone_rejects_f_zero(self):
        from afmass.cone import ConicalSurface, cone_metric_spec

        # f vanishes on the circle r = 2
        surface = ConicalSurface(
            lambda r, order: [r * (r - 2.0), 2.0 * r - 2.0, 2.0 + 0.0 * r][:order + 1],
            alpha=1.0)
        spec = cone_metric_spec(surface)
        for order in (0, 1, 2):
            with pytest.raises(NotPositiveDefinite):
                metric_jet(spec, np.array([2.0, 0.0]), order)
            assert metric_jet(spec, np.array([3.0, 0.0]), order)[0].shape == (2, 2)

    def test_cone_rejects_f_negative(self):
        from afmass.cone import ConicalSurface, cone_metric_spec

        # f < 0 inside the circle r = 2, where g = I + s T is still positive
        # definite: the profile is no surface of revolution there
        surface = ConicalSurface(
            lambda r, order: [r * (r - 2.0), 2.0 * r - 2.0, 2.0 + 0.0 * r][:order + 1],
            alpha=1.0)
        spec = cone_metric_spec(surface)
        for order in (0, 1, 2):
            with pytest.raises(NotPositiveDefinite, match="f <= 0"):
                metric_jet(spec, np.array([[3.0, 0.0], [0.0, 1.0]]), order)


class TestPointChecks:
    def test_singular_origin(self):
        spec = schwarzschild(3, 1.0)
        with pytest.raises(SingularPoint):
            metric_jet(spec, np.zeros(3), 0)[0]

    def test_non_positive_conformal_factor(self):
        from afmass.metrics import NonPositiveConformalFactor, RadialProfile

        prof = RadialProfile(
            lambda r, order: [1.0 - 2.0 / r, 2.0 / r ** 2, -4.0 / r ** 3][:order + 1],
            tail_coefficient=-2.0,
        )
        spec = conformally_flat(3, prof)
        with pytest.raises(NonPositiveConformalFactor):
            metric_jet(spec, np.array([1.0, 0.0, 0.0]), 0)[0]

    def test_not_positive_definite(self):
        # large negative tensor perturbation makes g indefinite near origin
        spec = asymptotically_schwarzschild(3, 1.0, c=-50.0)
        with pytest.raises(NotPositiveDefinite):
            metric_jet(spec, np.array([1.0, 0.0, 0.0]), 0)[0]

    def test_euclidean_everywhere(self):
        spec = euclidean(4)
        g = metric_jet(spec, np.array([0.0, 0.0, 0.0, 0.0]), 0)[0]
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
        assert np.allclose(metric_jet(spec, 2.0 * x, 0)[0], metric_jet(base, x, 0)[0])

    def test_scaled_mass_hint(self):
        base = schwarzschild(4, 1.0)
        # mass scales like lambda^{n-2}
        assert scaled(base, 3.0).family.mass_hint == pytest.approx(9.0)

    def test_translated_metric_values(self):
        base = schwarzschild(3, 1.0)
        spec = translated(base, np.array([1.0, 2.0, 3.0]))
        x = np.array([4.0, 0.0, 0.0])
        assert np.allclose(
            metric_jet(spec, x, 0)[0], metric_jet(base, x + np.array([1.0, 2.0, 3.0]), 0)[0]
        )

    def test_asymptotically_schwarzschild_decay(self):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.5)
        sch = schwarzschild(3, 1.0)
        for r, tol in ((10.0, 2e-2), (100.0, 2e-4)):
            x = np.array([r, 0.0, 0.0])
            diff = np.abs(metric_jet(spec, x, 0)[0] - metric_jet(sch, x, 0)[0]).max()
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
        assert np.allclose(metric_jet(spec, x, 0)[0], metric_jet(back, x, 0)[0])
        assert metric_to_json(back) == doc

    def test_wrappers(self):
        spec = translated(scaled(schwarzschild(3, 1.0), 2.0), [0.0, 1.0, 0.0])
        back = metric_from_json(metric_to_json(spec))
        x = np.array([[4.0, 2.0, 1.0]])
        assert np.allclose(metric_jet(spec, x, 0)[0], metric_jet(back, x, 0)[0])

    def test_shell(self):
        from afmass.shells import shell_metric

        spec = shell_metric(3, 2)
        back = metric_from_json(metric_to_json(spec))
        x = np.array([[1.5, 0.0, 0.0], [3.0, 1.0, 0.0]])
        assert np.allclose(metric_jet(spec, x, 0)[0], metric_jet(back, x, 0)[0], atol=1e-12)

    def test_cone(self):
        # no command takes an n = 2 spec, so the cone has no document
        from afmass.cone import capped_cone, cone_metric_spec

        with pytest.raises(NotImplementedError, match="Cone2D is not serializable"):
            metric_to_json(cone_metric_spec(capped_cone(0.7)))
        with pytest.raises(ValueError, match="unknown metric family 'Cone2D'"):
            metric_from_json({"n": 2, "family": "Cone2D", "params": {"alpha": 0.7}})

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            metric_from_json({"n": 3, "family": "Nope", "params": {}})

    @pytest.mark.parametrize("direction", [
        np.diag([0.0, 1.0, 0.0]),
        [[1.0, 2.0, 0.0], [0.0, -1.0, 0.5], [3.0, 0.0, 0.25]],
    ], ids=["axis-e2", "no-axis"])
    def test_direction(self, direction):
        spec = asymptotically_schwarzschild(3, 1.0, c=0.2, direction=direction)
        doc = metric_to_json(spec)
        assert doc["params"]["direction"] == spec.family.B.tolist()
        back = metric_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.family.B, spec.family.B)
        assert metric_to_json(back) == doc
        x = np.array([[3.0, 1.0, -2.0], [0.5, 4.0, 1.0]])
        assert np.array_equal(metric_jet(back, x, 0)[0], metric_jet(spec, x, 0)[0])
        default = asymptotically_schwarzschild(3, 1.0, c=0.2)
        assert not np.allclose(metric_jet(back, x, 0)[0], metric_jet(default, x, 0)[0])

    def test_default_direction_document_unchanged(self):
        # the default B = e1 e1 writes no direction, explicit or implied
        expected = ('{"n": 3, "family": "AsymptoticallySchwarzschild", '
                    '"params": {"m": 1.0, "c": 0.2}, "derivative_mode": "analytic"}')
        for direction in (None, np.diag([1.0, 0.0, 0.0])):
            spec = asymptotically_schwarzschild(3, 1.0, c=0.2, direction=direction)
            assert json.dumps(metric_to_json(spec)) == expected

    def test_direction_shape_checked(self):
        with pytest.raises(ValueError):
            asymptotically_schwarzschild(3, 1.0, direction=np.eye(2))


def _unit_or_flipped(axis, v):
    """axis equals the unit vector v up to sign."""
    return min(np.abs(axis - v).max(), np.abs(axis + v).max()) < 1e-14


class TestAxis:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_asymptotically_schwarzschild(self, n):
        e = np.eye(n)
        assert np.array_equal(asymptotically_schwarzschild(n, 1.0).family.symmetry, e[0])
        axis = asymptotically_schwarzschild(
            n, 1.0, direction=np.diag([0.0, 2.0] + [0.0] * (n - 2))).family.symmetry
        assert _unit_or_flipped(axis, e[1])
        # B = a I + b v v^T in floating point, for a v off every coordinate axis
        v = np.linspace(1.0, 2.0, n)
        v /= np.linalg.norm(v)
        for a, b in ((0.5, -1.5), (0.0, 1.0), (-3.0, 0.25)):
            B = a * np.eye(n) + b * np.outer(v, v)
            axis = asymptotically_schwarzschild(n, 1.0, direction=B).family.symmetry
            assert _unit_or_flipped(axis, v)
        # B = a I is invariant under every rotation: any unit vector is an axis
        axis = asymptotically_schwarzschild(n, 1.0, direction=2.0 * e).family.symmetry
        assert np.linalg.norm(axis) == pytest.approx(1.0, rel=1e-15)
        for B in (np.diag(np.arange(1.0, n + 1)), _random_direction(n)):
            assert asymptotically_schwarzschild(n, 1.0, direction=B).family.symmetry is False

    def test_wrappers_and_fields(self):
        spec = asymptotically_schwarzschild(4, 1.0, direction=np.diag([0, 0, 1.0, 0]))
        assert np.array_equal(scaled(spec, 2.5).family.symmetry, spec.family.symmetry)
        # a translation and a non-radial conformal factor keep no symmetry
        assert translated(spec, np.zeros(4)).family.symmetry is False
        assert conformally_flat(4, harmonic_dipole_field(4, 0.5, 0.2)).family.symmetry is False
        # a radial factor, the plane and the cone are invariant under every rotation
        for full in (schwarzschild(4, 1.0), scaled(schwarzschild(4, 1.0), 2.0),
                     euclidean(4), _cone()):
            assert full.family.symmetry is True
