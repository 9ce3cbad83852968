import math
import os
import subprocess
import sys

import numpy as np
import pytest
from shell_reference import reference_charge_function, reference_potential

import afmass
from afmass.geometry import unit_sphere_area
from afmass.mass import adm_mass
from afmass.curvature import scalar_curvature
from afmass import shells
from afmass.cone import capped_cone, cone_blow_up_profile, perturbed_cone
from afmass.metrics import (
    euclidean,
    harmonically_flat,
    metric_derivatives_at,
    metric_jet,
    scaled,
    schwarzschild,
)
from afmass.shells import (
    ShellDensity,
    _charge_function,
    default_shell_density,
    shell_mass,
    shell_matter_coupling,
    shell_metric,
    shell_tail_coefficient,
    solve_shell_potential,
)
from afmass.weighted import mass_matter_defect

# closed forms: a = 1 / ((n-2) omega_{n-1}), mass = 2a
TAIL_ORACLE = {3: 0.07957747154594767, 4: 0.025330295910584444}
MASS_ORACLE = {3: 0.15915494309189535, 4: 0.05066059182116889}


class TestDensity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_unit_total_integral(self, n):
        dens = default_shell_density(n)
        xg, wg = np.polynomial.legendre.leggauss(96)
        s = 0.25 * (xg + 1.0) + 0.5
        w = 0.25 * wg
        total = unit_sphere_area(n) * float(np.dot(w, s ** (n - 1) * dens.rho(s)))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_support(self):
        dens = default_shell_density(3)
        s = np.array([0.1, 0.5, 0.75, 1.0, 1.5])
        vals = dens.rho(s)
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[3] == 0.0 and vals[4] == 0.0
        assert vals[2] > 0.0

    def test_nonnegative(self):
        dens = default_shell_density(3)
        s = np.linspace(0.0, 1.5, 301)
        assert np.all(dens.rho(s) >= 0.0)


class TestPotential:
    @pytest.mark.parametrize("n", [3, 4])
    def test_tail_coefficient(self, n):
        assert shell_tail_coefficient(n) == pytest.approx(TAIL_ORACLE[n], rel=1e-12)
        prof = solve_shell_potential(n, 1)
        assert prof.tail_coefficient == pytest.approx(TAIL_ORACLE[n], rel=1e-10)

    def test_tail_independent_of_index(self):
        tails = [
            solve_shell_potential(3, i).tail_coefficient for i in (1, 2, 4, 8)
        ]
        assert max(tails) - min(tails) < 1e-14

    def test_scaling_identity(self):
        # v_i(x) = i^{2-n} v_1(x / i)
        n = 3
        p1 = solve_shell_potential(n, 1)
        p4 = solve_shell_potential(n, 4)
        r = np.array([0.3, 2.2, 3.1, 5.0, 20.0])
        lhs = p4.u(r) - 1.0
        rhs = 4.0 ** (2 - n) * (p1.u(r / 4.0) - 1.0)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_derivatives_consistent(self):
        p = solve_shell_potential(3, 1)
        h = 1e-5
        rr = np.array([0.6, 0.8, 0.95, 1.5])
        fd1 = (p.u(rr + h) - p.u(rr - h)) / (2 * h)
        assert np.allclose(fd1, p.du(rr), atol=1e-9)
        fd2 = (p.u(rr + h) - 2 * p.u(rr) + p.u(rr - h)) / h ** 2
        assert np.allclose(fd2, p.d2u(rr), atol=1e-5)

    def test_constant_inside_cavity(self):
        p = solve_shell_potential(3, 4)
        r = np.array([0.1, 0.5, 1.0, 1.9])
        vals = p.u(r)
        assert np.ptp(vals) < 1e-14
        assert np.allclose(p.du(r), 0.0)


class TestShellMetrics:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("i", [1, 2, 4, 8])
    def test_mass_invariant(self, n, i):
        spec = shell_metric(n, i)
        est = adm_mass(spec, radii=(4.0 * i, 8.0 * i, 16.0 * i, 32.0 * i), q=8)
        assert est.value == pytest.approx(MASS_ORACLE[n], rel=1e-3)

    def test_flat_inside_cavity(self):
        spec = shell_metric(3, 4)
        x = np.array([[1.0, 0.5, 0.0]])
        R = scalar_curvature(metric_jet(spec, x, 0)[0], *metric_derivatives_at(spec, x))
        assert R == pytest.approx(0.0, abs=1e-10)
        g = metric_jet(spec, x, 0)[0]
        # conformal to flat with a constant factor: curvature-free
        assert np.allclose(g[0], g[0, 0, 0] * np.eye(3))

    def test_scalar_flat_outside_support(self):
        spec = shell_metric(3, 2)
        x = np.array([[3.0, 0.0, 0.0], [10.0, 1.0, 0.0]])
        assert np.allclose(scalar_curvature(metric_jet(spec, x, 0)[0], *metric_derivatives_at(spec, x)), 0.0, atol=1e-10)

    def test_nonnegative_curvature_in_support(self):
        spec = shell_metric(3, 2)
        x = np.array([[1.5, 0.0, 0.0], [1.7, 0.2, 0.0]])
        assert np.all(scalar_curvature(metric_jet(spec, x, 0)[0], *metric_derivatives_at(spec, x)) >= 0.0)


class TestMatterCoupling:
    def test_coupling_matches_curvature_integral(self):
        # 1-d coupling formula against the full n-d scalar curvature integral
        spec = shell_metric(3, 2)
        rep = mass_matter_defect(spec, inner=0.5, outer=4.0, q=8)
        assert rep.matter == pytest.approx(shell_matter_coupling(3, 2), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8])
    def test_default_matter_integral_matches_coupling(self, n, i):
        # the closed conformal density U lap U, integrated on the default
        # annulus, against the 1-d coupling formula
        rep = mass_matter_defect(shell_metric(n, i), q=4)
        assert rep.matter == pytest.approx(shell_matter_coupling(n, i), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_defect_negative_and_shrinking(self, n):
        defects = []
        for i in (1, 2, 4, 8):
            defects.append(MASS_ORACLE[n] - shell_matter_coupling(n, i))
        assert all(d < 0.0 for d in defects)
        mags = [abs(d) for d in defects]
        assert mags == sorted(mags, reverse=True)
        # defect carries the i^{2-n} scale of v_i on its own support
        assert mags[0] / mags[3] == pytest.approx(8.0 ** (n - 2), rel=0.05)

    def test_mass_hint(self):
        assert shell_metric(3, 5).family.mass_hint == pytest.approx(
            MASS_ORACLE[3], rel=1e-12
        )
        assert shell_mass(3) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def _shell_radii(n, i):
    """Radii in the cavity, at lo, inside the support, at hi and beyond."""
    dens = default_shell_density(n)
    lo, hi = i * dens.lo, i * dens.hi
    return np.concatenate([
        [1e-3 * lo, 0.5 * lo, lo],
        np.linspace(lo, hi, 13)[1:-1],
        [hi, 1.5 * hi, 40.0 * hi],
    ])


class TestNewtonRoute:
    """v by Newton's shell theorem against the nested quadrature."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8, 512])
    def test_matches_nested_quadrature(self, n, i):
        dens = default_shell_density(n)
        r = _shell_radii(n, i)
        prof = solve_shell_potential(n, i)
        ref_u, ref_du, ref_d2u = reference_potential(n, i, dens)
        np.testing.assert_allclose(prof.u(r), ref_u(r), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(prof.du(r), ref_du(r), rtol=1e-13, atol=0.0)
        # d2u = (n-1) r^{-n} Q - rho cancels inside the support: compare at
        # the scale of the profile's largest d2u
        ref = ref_d2u(r)
        np.testing.assert_allclose(
            prof.d2u(r), ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max()
        )

    @pytest.mark.parametrize("n", [3, 7])
    def test_flat_center(self, n):
        # v is constant in the cavity, down to r = 0
        prof = solve_shell_potential(n, 2)
        r = np.array([0.0, 0.5])
        assert prof.u(r)[0] == prof.u(r)[1]
        assert np.array_equal(prof.du(r), [0.0, 0.0])
        assert np.array_equal(prof.d2u(r), [0.0, 0.0])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8, 512])
    def test_charge_matches_nested_quadrature(self, n, i):
        dens = default_shell_density(n)
        r = _shell_radii(n, i)
        Q, q_inf, _ = _charge_function(n, dens, i)
        ref_Q, ref_q_inf = reference_charge_function(n, dens, i)
        np.testing.assert_allclose(Q(r), ref_Q(r), rtol=1e-13, atol=0.0)
        assert q_inf == pytest.approx(ref_q_inf, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8])
    def test_radial_ode_on_support(self, n, i):
        # v'' + (n-1) v' / r = -rho_i
        dens = default_shell_density(n)
        r = i * np.linspace(dens.lo, dens.hi, 41)
        prof = solve_shell_potential(n, i)
        rho_i = i ** (-n) * dens.rho(r / i)
        lhs = prof.d2u(r) + (n - 1) * prof.du(r) / r
        assert np.abs(lhs + rho_i).max() <= 1e-12 * rho_i.max()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8])
    def test_total_charge(self, n, i):
        # Q_i(hi) = 1 / omega_{n-1} for the unit-mass density, for every i
        dens = default_shell_density(n)
        Q, q_inf, _ = _charge_function(n, dens, i)
        expected = 1.0 / unit_sphere_area(n)
        assert q_inf == pytest.approx(expected, rel=1e-13)
        np.testing.assert_allclose(Q(i * np.array([1.0, 2.0, 50.0])), expected, rtol=1e-13)


class TestSupportRows:
    """Panels run only on the radii strictly inside the support."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8])
    def test_rows_do_not_depend_on_their_call(self, n, i):
        # cavity, lo, support, hi and exterior radii, interleaved
        dens = default_shell_density(n)
        r = np.random.default_rng(n * i).permutation(_shell_radii(n, i))
        prof = solve_shell_potential(n, i)
        ref = reference_potential(n, i, dens)
        for name, ref_f in zip(("u", "du", "d2u"), ref):
            f = getattr(prof, name)
            whole = f(r)
            rows = np.concatenate([f(r[k:k + 1]) for k in range(r.size)])
            assert np.array_equal(whole, rows), name
            expected = ref_f(r)
            # d2u cancels inside the support: compare at its largest scale
            atol = 1e-13 * np.abs(expected).max() if name == "d2u" else 0.0
            np.testing.assert_allclose(whole, expected, rtol=1e-13, atol=atol)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_no_quadrature_off_the_support(self, monkeypatch, n):
        nodes = []
        density = shells.default_shell_density

        def spied(n):
            dens = density(n)

            def rho(s):
                nodes.append(np.size(s))
                return dens.rho(s)

            return ShellDensity(rho=rho, lo=dens.lo, hi=dens.hi)

        monkeypatch.setattr(shells, "default_shell_density", spied)
        i = 2
        lo, hi = i * shells._SUPPORT[0], i * shells._SUPPORT[1]
        spec = shell_metric(n, i)
        # Q(inf) and T(lo): one panel each, once per profile
        assert nodes == [16, 16]
        e = np.eye(n)
        # the cavity, lo, hi and past the support, on every axis
        x = np.concatenate([
            r * e for r in (1e-3, 0.3 * lo, lo, hi, 1.25 * hi, 20.0 * hi)
        ])
        nodes.clear()
        metric_jet(spec, x, 2)
        assert nodes == []
        # a point inside the support runs its panels: Q once for every
        # order, T in v and rho_i in v''
        metric_jet(spec, 0.75 * i * e[:1], 2)
        assert nodes == [16, 16, 1]


def _assert_jet_orders_agree(prof, readers, r):
    """jet(r, 2)[:k + 1] equals jet(r, k) bit for bit for k = 0, 1, and each
    reader (u, du, d2u or f, df, d2f) equals its entry of the jet."""
    full = prof.jet(r, 2)
    assert len(full) == 3, prof.name
    calls = [prof.jet(r, k) for k in (0, 1)]
    calls += [[getattr(prof, name)(r) for name in readers]]
    for got in calls:
        for a, b in zip(got, full):
            assert a.dtype == b.dtype and a.shape == b.shape, prof.name
            assert a.tobytes() == b.tobytes(), prof.name
    assert [len(c) for c in calls] == [1, 2, 3]


# every other radial jet the package builds: name -> its profile or surface
RADIAL_JETS = {
    "schwarzschild": lambda: schwarzschild(5, 1.3).family.radial_profile,
    "harmonically-flat": lambda: harmonically_flat(4, 0.7).family.radial_profile,
    "euclidean": lambda: euclidean(3).family.radial_profile,
    "capped-cone": lambda: capped_cone(0.6),
    "perturbed-cone": lambda: perturbed_cone(0.6),
    "cone-blow-up": lambda: cone_blow_up_profile(capped_cone(0.6), 4.0),
}


class TestProfileJet:
    """Each radial jet writes each order once: its low orders are the
    leading entries of its order-2 jet, and u, du, d2u (f, df, d2f) read
    them, which the benchmark's tracer wraps."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("i", [1, 2, 8])
    def test_jet_equals_the_separate_calls(self, n, i):
        # cavity, support and tail radii, on the shell and its dilation
        r = _shell_radii(n, i)
        for prof in (solve_shell_potential(n, i),
                     scaled(shell_metric(n, i), 1.7).family.radial_profile):
            _assert_jet_orders_agree(prof, ("u", "du", "d2u"), r)

    @pytest.mark.parametrize("name", sorted(RADIAL_JETS))
    def test_every_radial_jet_reads_its_orders_alike(self, name):
        # the cap (r < 1, or r < 4 blown up), its edge and the tail
        r = np.concatenate([np.geomspace(0.05, 200.0, 17), [1.0, 4.0]])
        prof = RADIAL_JETS[name]()
        readers = ("u", "du", "d2u") if hasattr(prof, "u") else ("f", "df", "d2f")
        _assert_jet_orders_agree(prof, readers, r)

    def test_one_charge_evaluation_per_jet(self, monkeypatch):
        calls = []
        charge = shells._charge_function

        def spied(*args):
            Q, q_inf, T = charge(*args)

            def counting(r):
                calls.append(np.size(r))
                return Q(r)

            return counting, q_inf, T

        monkeypatch.setattr(shells, "_charge_function", spied)
        spec = shell_metric(3, 2)
        x = np.array([[0.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 3.0]])
        metric_jet(spec, x, 2)
        assert calls == [3]

    def test_scaled_profile_is_built_once(self):
        family = scaled(shell_metric(3, 2), 1.7).family
        assert family.radial_profile is family.radial_profile
        assert family.radial_profile.tail_coefficient == pytest.approx(
            1.7 * shell_tail_coefficient(3), rel=1e-15)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(afmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, afmass.cli; "
         "print(sorted(m for m, mod in sys.modules.items()"
         " if m.split('.')[0] == 'scipy' and mod is not None))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
