import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afmass.geometry import unit_sphere_area
from afmass.mass import (
    FitIllConditioned,
    MassEstimate,
    ZeroRhoMin,
    adm_flux,
    adm_mass,
    extrapolate,
    fg,
    fg_detail,
    fg_limit,
    fit_inverse_power,
    flux_constant,
    penrose_like_check,
)
from afmass.metrics import (
    asymptotically_schwarzschild,
    conformally_flat,
    euclidean,
    harmonic_dipole_field,
    harmonically_flat,
    scaled,
    schwarzschild,
    translated,
)
from afmass.shells import shell_mass, shell_metric

# closed form: flux through S_r of a radial conformal power-tail metric is
# m U(r)^{(6-n)/(n-2)}; frozen for m=1.3, r=50
FLUX_ORACLE = {
    3: 1.3513619560999997,
    4: 1.300338,
    5: 1.3000022533294275,
    6: 1.3,
    7: 1.2999999994592,
}


def test_flux_constant_n3():
    assert flux_constant(3) == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-14)


@pytest.mark.parametrize("n", sorted(FLUX_ORACLE))
def test_raw_flux_closed_form(n):
    spec = schwarzschild(n, 1.3)
    assert adm_flux(spec, 50.0, q=16) == pytest.approx(FLUX_ORACLE[n], rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_adm_mass_schwarzschild(n):
    spec = schwarzschild(n, 1.3)
    est = adm_mass(spec, radii=(50.0, 100.0, 200.0, 400.0), q=32)
    assert est.value == pytest.approx(1.3, rel=1e-3)
    assert est.model["p"] >= 1.0


@pytest.mark.parametrize("n,i", [(5, 128), (3, 512)])
def test_default_radii_clear_the_shell(n, i):
    # the default ladder starts at twice the outer edge of the support
    # [i/2, i]; the flux of a sphere inside the shell misses the mass
    est = adm_mass(shell_metric(n, i))
    assert est.radii[0] >= 2.0 * i
    assert est.value == pytest.approx(shell_mass(n), rel=1e-3)


def test_analytic_flux_builds_no_dense_jet(monkeypatch):
    spec = asymptotically_schwarzschild(4, 1.0, c=0.3)

    def dense(x, order):
        raise AssertionError("dense jet built")

    for family in (spec.family, spec.family.base):
        monkeypatch.setattr(family, "jet", dense)
    assert adm_flux(spec, 100.0, q=8) == pytest.approx(1.0, abs=2e-3)


def test_default_radii_clear_a_translated_shell():
    # a translation moves the support [256, 512] to within 512 + |offset|
    est = adm_mass(translated(shell_metric(3, 512), [10.0, 0.0, 0.0]))
    assert est.radii[0] >= 2.0 * 522.0
    assert est.value == pytest.approx(shell_mass(3), rel=1e-3)


def test_euclidean_mass_zero():
    est = adm_mass(euclidean(3), radii=(10.0, 20.0), q=8)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_mass_scaling_law():
    # m(lambda^2 g) = lambda^{n-2} m(g)
    base = schwarzschild(4, 1.0)
    spec = scaled(base, 2.0)
    est = adm_mass(spec, radii=(50.0, 100.0), q=16)
    assert est.value == pytest.approx(4.0, rel=1e-6)


def test_harmonically_flat_mass():
    spec = harmonically_flat(3, 0.25)
    est = adm_mass(spec, radii=(50.0, 100.0, 200.0), q=16)
    assert est.value == pytest.approx(0.5, rel=1e-4)


class TestFitInversePower:
    def test_exact_model_recovered(self):
        radii = np.array([10.0, 20.0, 40.0, 80.0])
        values = 2.0 + 3.0 * radii ** -1.5
        c0, c1, rms = fit_inverse_power(radii, values, 1.5)
        assert c0 == pytest.approx(2.0, rel=1e-12)
        assert c1 == pytest.approx(3.0, rel=1e-10)
        assert rms < 1e-12

    def test_single_sample(self):
        c0, c1, rms = fit_inverse_power([10.0], [5.0], 1.0)
        assert (c0, c1, rms) == (5.0, 0.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(FitIllConditioned):
            fit_inverse_power([], [], 1.0)

    def test_degenerate_radii_raise(self):
        with pytest.raises(FitIllConditioned):
            fit_inverse_power([10.0, 10.0], [1.0, 2.0], 1.0)

    @given(
        st.floats(-5.0, 5.0),
        st.floats(-10.0, 10.0),
        st.floats(0.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_any_exact_model(self, c0, c1, p):
        radii = np.array([5.0, 11.0, 23.0, 47.0])
        values = c0 + c1 * radii ** -p
        f0, f1, rms = fit_inverse_power(radii, values, p)
        assert f0 == pytest.approx(c0, abs=1e-8)
        assert rms < 1e-8


class TestFg:
    def test_schwarzschild_exact_at_every_radius(self):
        # centered spheres of the model metric: fg(S_r) = m identically
        spec = schwarzschild(3, 1.0)
        for r in (10.0, 50.0, 200.0):
            assert fg(spec, r) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_schwarzschild_exact_high_dim(self, n):
        spec = schwarzschild(n, 2.0)
        assert fg(spec, 20.0) == pytest.approx(2.0, abs=1e-8)

    def test_euclidean_fg_zero(self):
        # the translated chart has no radial profile: the generic bracket runs
        flat = translated(euclidean(3), np.zeros(3))
        assert fg(flat, 10.0, q=16) == pytest.approx(0.0, abs=1e-5)

    def test_dipole_residual_halves(self):
        spec = conformally_flat(3, harmonic_dipole_field(3, 0.5, 0.3))
        res = [abs(fg(spec, r, q=16) - 1.0) for r in (20.0, 40.0, 80.0)]
        for a, b in zip(res, res[1:]):
            assert 1.7 < a / b < 2.3

    def test_fg_limit_extrapolates_dipole(self):
        spec = conformally_flat(3, harmonic_dipole_field(3, 0.5, 0.3))
        est = fg_limit(spec, (40.0, 80.0, 160.0, 320.0), q=16)
        assert est.value == pytest.approx(1.0, abs=2e-2)
        assert est.model["p"] == 1.0

    def test_zero_rho_min_raises(self):
        # fg undefined when the induced curvature minimum is not positive
        from afmass.spheres import SphereReport

        rep = SphereReport(r=10.0, area=1.0, H_min=0.1, H_max=0.2, maxH2=0.04,
                           rho_min=-0.1, rho_max=0.1, q=8)
        with pytest.raises(ZeroRhoMin):
            fg_detail(schwarzschild(3, 1.0), 10.0, report=rep)

    def test_detail_fields(self):
        d = fg_detail(schwarzschild(3, 1.0), 10.0, q=8)
        for key in ("fg", "r", "area", "maxH2", "rho_min", "rho_max", "q"):
            assert key in d
        assert d["area"] == pytest.approx(1527.4502021569917, rel=1e-12)


class TestPenroseLikeCheck:
    def test_schwarzschild(self):
        rec = penrose_like_check(schwarzschild(3, 1.0), 20.0, q=8)
        assert rec["hypothesis_holds"]
        assert rec["inequality_holds"]
        assert rec["fg"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_schwarzschild_near_horizon(self, n):
        rec = penrose_like_check(schwarzschild(n, 1.0), 3.0)
        assert rec["hypothesis_holds"] and rec["inequality_holds"]
        assert rec["fg"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_shell_past_support(self, n):
        # the 8th shell is supported in [4, 8]; at r = 16 fg sees all of it
        rec = penrose_like_check(shell_metric(n, 8), 16.0)
        assert rec["hypothesis_holds"] and rec["inequality_holds"]
        assert rec["fg"] == pytest.approx(shell_mass(n), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_flat_cavity_is_an_exact_tie(self, n):
        # inside the 8th shell (support [4, 8]) g is flat up to a constant
        # factor: rho_min = ratio maxH2 exactly, so the strict hypothesis
        # fails in every dimension, whatever the rounding of the two sides
        rec = penrose_like_check(shell_metric(n, 8), 2.0)
        assert rec["hypothesis_holds"] is False
        assert rec["fg"] is None and rec["inequality_holds"] is None

    def test_dipole(self):
        spec = conformally_flat(3, harmonic_dipole_field(3, 0.5, 0.3))
        rec = penrose_like_check(spec, 50.0, q=12)
        assert rec["hypothesis_holds"]
        assert rec["inequality_holds"]
        assert rec["fg"] < rec["mass"]


def test_mass_estimate_json_roundtrip():
    est = MassEstimate(value=1.0, error=1e-4, radii=(50.0, 100.0),
                       raw=(1.01, 1.005), model={"c0": 1.0, "c1": 0.5, "p": 1.0})
    back = MassEstimate.from_json(est.to_json())
    assert back == est


def test_extrapolate_fits_inverse_power():
    radii = (10.0, 20.0, 40.0)
    raw = [2.0 + 3.0 * r ** -1.5 for r in radii]
    est = extrapolate(radii, raw, 1.5)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert est.model == {"c0": est.value, "c1": pytest.approx(3.0), "p": 1.5}
    assert est.error == pytest.approx(abs(raw[-1] - 2.0), rel=1e-9)
    assert est.radii == radii and est.raw == tuple(raw)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_extrapolate_rejects_an_overflowing_fit():
    # finite samples near 1e198: the squared fit residual overflows
    radii = (20.0, 40.0, 80.0, 160.0)
    with pytest.raises(FitIllConditioned, match="overflows"):
        extrapolate(radii, [3.3e199 / r for r in radii], 1.0)


def _no_axis(n):
    """A traceless direction B with n distinct eigenvalues: no axis, so the
    full grid, and a perturbation whose flux averages out over spheres."""
    return np.diag(np.arange(n) - 0.5 * (n - 1))


def test_grid_flux_memory_is_bounded_at_n7():
    # the default AS direction has an axis and takes one meridian; this one
    # has none, so its flux runs on the full n = 7, q = 7 grid (117,649
    # nodes), whose dg alone would take 323 MB.  Blocks of BLOCK_ENTRIES
    # entries and the closed mass vector, n numbers a node and not dg's n^3
    # (32 MiB a block), keep the peak far below that
    spec = asymptotically_schwarzschild(7, 1.0, c=0.3, direction=_no_axis(7))
    assert spec.family.symmetry is False
    tracemalloc.start()
    try:
        flux = adm_flux(spec, 100.0, q=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert flux == pytest.approx(1.0, abs=2e-3)


def test_axial_adm_mass_at_n7():
    # one meridian of 16 nodes per sphere; the full 16^6 grid takes 30-50 s
    est = adm_mass(asymptotically_schwarzschild(7, 1.0), q=16)
    assert est.value == pytest.approx(1.0, abs=1e-3)
