import warnings

import numpy as np
import pytest

from afmass import weighted
from afmass.cone import capped_cone, cone_metric_spec
from afmass.curvature import scalar_curvature
from afmass.geometry import sample_spheres
from afmass.mass import adm_mass
from afmass import curvature, metrics
from afmass.metrics import (
    Family,
    NotPositiveDefinite,
    asymptotically_schwarzschild,
    conformally_flat,
    euclidean,
    harmonic_dipole_field,
    harmonically_flat,
    metric_derivatives_at,
    metric_jet,
    scalar_density,
    scaled,
    schwarzschild,
    translated,
)
from afmass.shells import shell_mass, shell_metric
from afmass.weighted import (
    DefectReport,
    WeightedNormParams,
    _volume_quadrature,
    d_operator_at,
    mass_matter_defect,
    mass_via_divergence,
    matter_integral,
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
            metric_jet(spec, x, 0)[0] - metric_jet(reference, x, 0)[0],
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
        g = metric_jet(spec, x, 0)[0]
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
    # the i = 2 shell has breakpoints 1 and 2: they cut the panels of every
    # annulus they fall in, so the cumulative integrals at the edges are the
    # separate annulus integrals added up, and naming the breakpoints as
    # edges changes no panel
    spec = shell_metric(3, 2)
    assert spec.family.radial_breakpoints == (1.0, 2.0)
    fn = weighted._scalar_density
    cumulative = _volume_quadrature(spec, fn, [0.5, 1.5, 3.0, 8.0], 4, 32)
    parts = [_volume_quadrature(spec, fn, [lo, hi], 4, 32)[0]
             for lo, hi in ((0.5, 1.5), (1.5, 3.0), (3.0, 8.0))]
    assert cumulative.shape == (3,)
    assert np.allclose(cumulative, np.cumsum(parts), rtol=1e-14, atol=0.0)
    named = _volume_quadrature(spec, fn, [0.5, 1.0, 1.5, 2.0, 3.0, 8.0], 4, 32)
    assert np.allclose(named[[1, 3, 4]], cumulative, rtol=1e-14, atol=0.0)
    # an annulus of zero width holds nothing
    assert _volume_quadrature(spec, fn, [1.5, 1.5, 3.0], 4, 32)[0] == 0.0
    assert matter_integral(spec, 3.0, 3.0) == 0.0


def test_far_nodes_keep_their_panels():
    # past |x| ~ 1.3e154 the squares of |x| overflow; the panel a node
    # falls in must not, so int 1/|x| over the annuli of R^2 is
    # 2 pi (e - edges[0]) at every later edge e
    edges = np.array([1e155, 1.0001e155, 1.0003e155])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _volume_quadrature(
            euclidean(2), lambda spec, x: 1.0 / np.hypot.reduce(x, axis=1), edges, 4)
        # there the weight r dr of a wider annulus overflows: one error
        with pytest.raises(OverflowError):
            matter_integral(cone_metric_spec(capped_cone(0.7)), 1e160, 2e160)
    assert got == pytest.approx(2.0 * np.pi * (edges[1:] - edges[0]), rel=1e-12)


def test_cumulative_integrals_match_the_per_annulus_sums():
    # integrals of one annulus each, recorded from the quadrature that made
    # one sampler pass per radial panel: d_operator_at on AS over 2-4, 4-8
    # and 8-16 (q = 8, radial_q = 16), and R sqrt(det g) on the i = 2 shell
    # over 1-3 (split at its breakpoint 2) and 3-8 (q = 4, radial_q = 32)
    cases = [
        (asymptotically_schwarzschild(3, 1.0, c=0.3), d_operator_at,
         [2.0, 4.0, 8.0, 16.0], 8, 16,
         [-27.100712591451114, -11.781838017515796, -5.462328477474937]),
        (shell_metric(3, 2), weighted._scalar_density, [1.0, 3.0, 8.0], 4, 32,
         [8.393130851844305, 1.7582873816978001e-15]),
    ]
    for spec, fn, edges, q, radial_q, annuli in cases:
        got = _volume_quadrature(spec, fn, edges, q, radial_q)
        want = np.cumsum(annuli)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (got, want)


@pytest.mark.parametrize("compute", [
    lambda: matter_integral(shell_metric(3, 2), 0.5, 8.0, q=4),
    lambda: mass_via_divergence(asymptotically_schwarzschild(3, 1.0, c=0.3), q=4),
], ids=["matter_integral", "mass_via_divergence"])
def test_one_sampler_pass_per_volume_integral(monkeypatch, compute):
    # mass_via_divergence's three annuli come from one pass
    passes = []
    sample = weighted.sample_spheres

    def spy(*args, **kw):
        passes.append(args[2])
        return sample(*args, **kw)

    monkeypatch.setattr(weighted, "sample_spheres", spy)
    compute()
    assert len(passes) == 1


def _density_cases(n):
    """(name, spec, radii, on_matter): conformal families of dimension n and
    radii about their centre, with the radii where R sqrt(det g) is not 0
    (the i = 2 shell's support [1, 2], dilated by 1.7 for the scaled one)."""
    shell = shell_metric(n, 2)
    vacuum = [0.5, 2.0, 20.0, 300.0]
    shell_radii = [0.3, 0.99, 1.2, 1.5, 1.8, 2.0, 2.5, 10.0, 300.0]
    matter = [False, False, True, True, True, False, False, False, False]
    return [
        ("Schwarzschild", schwarzschild(n, 1.3), vacuum, [False] * 4),
        ("HarmonicallyFlat", harmonically_flat(n, 0.4), vacuum, [False] * 4),
        ("dipole", conformally_flat(n, harmonic_dipole_field(n, 0.5, 0.3)),
         [1.5, 2.0, 20.0, 300.0], [False] * 4),
        ("shell", shell, shell_radii, matter),
        ("Scaled-shell", scaled(shell, 1.7), [1.7 * r for r in shell_radii], matter),
        ("Translated-shell", translated(shell, 0.1 * np.arange(1, n + 1)),
         shell_radii, matter),
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_closed_scalar_density_matches_the_ricci_contraction(n):
    # the override -4 (n-1)/(n-2) U lap U against Family.scalar_density's
    # contraction of the dense jet, at points in every direction: relative
    # 1e-10 on the matter, and roundoff of the contraction's terms where
    # R = 0 (vacuum, cavity and tail)
    rng = np.random.default_rng(n)
    for name, spec, radii, on_matter in _density_cases(n):
        family = spec.family
        u = rng.normal(size=(len(radii), n))
        x = np.array(radii)[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
        if name.startswith("Translated"):
            x -= family.offset
        closed = family.scalar_density(x)
        generic = Family.scalar_density(family, x)
        g, dg, d2g = family.jet(x, 2)
        f = g[:, 0, 0]
        roundoff = 64.0 * np.finfo(float).eps * f ** (n / 2.0) * (
            np.abs(d2g).reshape(len(x), -1).max(axis=1) / f
            + (np.abs(dg).reshape(len(x), -1).max(axis=1) / f) ** 2)
        on = np.array(on_matter)
        assert np.all(closed[on] > 0.0), name
        np.testing.assert_allclose(generic[on], closed[on], rtol=1e-10, atol=0.0,
                                   err_msg=name)
        for value in (closed[~on], generic[~on]):
            assert np.all(np.abs(value) <= roundoff[~on]), (name, value)


def test_matter_integral_takes_the_closed_form_for_conformal_specs(monkeypatch):
    calls = []
    contraction = curvature.scalar_curvature

    def counting(*args):
        calls.append(len(args[0]))
        return contraction(*args)

    for module in (curvature, metrics):
        monkeypatch.setattr(module, "scalar_curvature", counting)
    shell = shell_metric(3, 2)
    for spec in (schwarzschild(3, 1.0), shell, scaled(shell, 1.5),
                 translated(shell, [0.5, 0.0, 0.0]),
                 conformally_flat(3, harmonic_dipole_field(3, 0.5, 0.3))):
        matter_integral(spec, 2.0, 4.0, q=4, radial_q=8)
    assert calls == []
    matter_integral(asymptotically_schwarzschild(3, 1.0, c=0.3), 2.0, 4.0,
                    q=4, radial_q=8)
    assert calls and sum(calls) > 0
    # an fd spec of a conformal family contracts its finite-difference jet
    calls.clear()
    matter_integral(schwarzschild(3, 1.0, derivative_mode="fd"), 2.0, 4.0,
                    q=2, radial_q=2)
    assert calls


@pytest.mark.parametrize("action", ["default", "error"])
def test_closed_scalar_density_refuses_where_det_g_overflows(action):
    # U = 1 + m / (2r) = 1e32 at r = 0.005: the jet (U^4 and its
    # derivatives) is finite, but det g = U^12 is not, and there U lap U is
    # roundoff; the same error whatever the warnings filter, for the
    # wrappers too
    base = schwarzschild(3, 1e30)
    x = np.array([[1e6, 0.0, 0.0], [0.005, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert all(np.isfinite(d).all() for d in metric_jet(base, x))
        for spec, y in ((base, x), (scaled(base, 2.0), 2.0 * x),
                        (translated(base, [1.0, 0.0, 0.0]), x - [1.0, 0.0, 0.0])):
            with pytest.raises(NotPositiveDefinite, match=r"det g = U\^12 overflows"):
                scalar_density(spec, y)
        # far out det g = U^12 < 1e282 is finite, and so is the density
        assert np.isfinite(scalar_density(base, x[0]))
