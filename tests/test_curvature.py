import tracemalloc

import numpy as np
import pytest

from afmass.curvature import (
    _christoffels,
    _ricci_from_inverse,
    fd_metric_derivatives,
    scalar_curvature,
)
from afmass.cone import capped_cone, cone_metric_spec, perturbed_cone
from afmass.metrics import (
    _fd_steps,
    asymptotically_schwarzschild,
    conformally_flat,
    harmonic_dipole_field,
    metric_derivatives_at,
    metric_jet,
    scaled,
    translated,
)
from afmass.shells import shell_metric
from fd_reference import (
    curvature_of_metric_fn,
    fd2_metric_derivatives,
    fd4_metric_derivatives,
)
from ricci_reference import ricci_reference


def round_sphere_metric(R, d):
    """Round d-sphere of radius R in iterated-angle coordinates."""

    def fn(phi):
        phi = np.atleast_2d(phi)
        N = phi.shape[0]
        g = np.zeros((N, d, d))
        sin_running = np.ones(N)
        for k in range(d):
            g[:, k, k] = R ** 2 * sin_running ** 2
            sin_running = sin_running * np.sin(phi[:, k])
        return g

    return fn


def test_flat_metric_curvature_zero():
    g = np.tile(np.eye(3), (4, 1, 1))
    dg = np.zeros((4, 3, 3, 3))
    d2g = np.zeros((4, 3, 3, 3, 3))
    assert np.allclose(scalar_curvature(g, dg, d2g), 0.0)
    ginv = np.linalg.inv(g)
    assert np.allclose(_ricci_from_inverse(ginv, dg, d2g, *_christoffels(ginv, dg)), 0.0)


def test_christoffel_flat_zero():
    g = np.tile(np.eye(3), (2, 1, 1))
    dg = np.zeros((2, 3, 3, 3))
    assert np.allclose(_christoffels(np.linalg.inv(g), dg)[1], 0.0)


@pytest.mark.parametrize("d,R", [(2, 1.0), (2, 3.0), (3, 2.0), (4, 1.5)])
def test_round_sphere_scalar_curvature(d, R):
    # R_scal = d (d-1) / R^2
    fn = round_sphere_metric(R, d)
    phi = np.full((3, d), 0.0)
    phi[:, :] = np.linspace(0.8, 1.8, 3)[:, None]
    scal = curvature_of_metric_fn(fn, phi, 2.2e-3)
    assert scal == pytest.approx(d * (d - 1) / R ** 2, rel=1e-8)


def test_fd_derivatives_match_polynomial():
    # quadratic metric entries: FD second derivatives are exact
    A = np.array([[0.3, 0.1], [0.1, -0.2]])

    def fn(x):
        x = np.atleast_2d(x)
        N = x.shape[0]
        g = np.tile(np.eye(2), (N, 1, 1))
        quad = np.einsum("ni,ij,nj->n", x, A, x)
        g[:, 0, 0] += 0.1 * quad
        g[:, 0, 1] += 0.05 * x[:, 0] * x[:, 1]
        g[:, 1, 0] = g[:, 0, 1]
        return g

    x = np.array([[0.4, -0.7]])
    for stencil in (fd_metric_derivatives, fd4_metric_derivatives):
        g, dg, d2g = stencil(fn, x, 1e-3)
        assert np.array_equal(g, fn(x))
        # d_0 g_00 = 0.1 * 2 (A x)_0
        expect = 0.2 * (A @ x[0])[0]
        assert dg[0, 0, 0, 0] == pytest.approx(expect, abs=1e-8)
        assert d2g[0, 0, 0, 0, 0] == pytest.approx(0.2 * A[0, 0], abs=1e-6)
        assert d2g[0, 0, 1, 0, 1] == pytest.approx(0.05, abs=1e-6)


def test_order4_beats_order2_on_smooth_metric():
    def fn(x):
        x = np.atleast_2d(x)
        N = x.shape[0]
        g = np.tile(np.eye(2), (N, 1, 1))
        g[:, 0, 0] += 0.3 * np.sin(x[:, 0]) * np.cos(x[:, 1])
        g[:, 1, 1] += 0.2 * np.exp(-x[:, 0] ** 2 / 4)
        return g

    x = np.array([[0.5, 0.3]])
    h = 0.05
    exact_d2 = -0.3 * np.sin(0.5) * np.cos(0.3)
    _, _, d2_2 = fd_metric_derivatives(fn, x, h)
    _, _, d2_4 = fd4_metric_derivatives(fn, x, h)
    err2 = abs(d2_2[0, 0, 0, 0, 0] - exact_d2)
    err4 = abs(d2_4[0, 0, 0, 0, 0] - exact_d2)
    assert err4 < err2 / 10


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_ricci_matches_christoffel_derivative_reference(n):
    # a perturbation with a random symmetric direction leaves no symmetry
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    spec = asymptotically_schwarzschild(n, 1.3, c=0.4, direction=B + B.T)
    x = rng.uniform(0.5, 3.0, size=(64, n)) * rng.choice([-1.0, 1.0], size=(64, n))
    g = metric_jet(spec, x, 0)[0]
    dg, d2g = metric_derivatives_at(spec, x)
    ref = ricci_reference(g, dg, d2g)
    ginv = np.linalg.inv(g)
    ric = _ricci_from_inverse(ginv, dg, d2g, *_christoffels(ginv, dg))
    assert np.abs(ric - ref).max() <= 1e-12 * np.abs(ref).max()


def _stencil_spec(kind, n):
    """An fd spec of the given kind: "no-axis" is AS with a direction that
    has no axis, "translated" a shell moved off the origin, "dipole" the
    harmonic dipole and "scaled" a scaled AS; at n = 2, where none of them
    exists, the perturbed, moved, capped and scaled cones."""
    if kind == "no-axis":
        if n == 2:
            return cone_metric_spec(perturbed_cone(0.6), derivative_mode="fd")
        direction = np.diag(np.arange(n) - 0.5 * (n - 1))
        return asymptotically_schwarzschild(n, 1.3, c=0.4, direction=direction,
                                            derivative_mode="fd")
    if kind == "dipole":
        if n == 2:
            return cone_metric_spec(capped_cone(0.7), derivative_mode="fd")
        return conformally_flat(n, harmonic_dipole_field(n, 0.5, 0.3),
                                derivative_mode="fd")
    if kind == "scaled":
        base = (cone_metric_spec(perturbed_cone(0.6)) if n == 2
                else asymptotically_schwarzschild(n, 1.3, c=0.4))
        return scaled(base, 0.7, derivative_mode="fd")
    base = (cone_metric_spec(perturbed_cone(0.6)) if n == 2
            else shell_metric(n, 2))
    offset = np.linspace(0.5, 1.5, n)
    return translated(base, offset, derivative_mode="fd")


def _recording(fn, calls):
    def record(y):
        calls.append(y.copy())
        return fn(y)
    return record


@pytest.mark.parametrize("kind", ["no-axis", "translated", "dipole", "scaled"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("per_point", [False, True])
def test_fd_stencil_is_bitwise_the_reference(kind, n, per_point):
    # the stencil stacks its shifted copies into few calls and writes into
    # direction-major buffers; the reference loop makes one call per copy
    # and allocates every difference afresh.  Same rows in the same order,
    # same arithmetic
    spec = _stencil_spec(kind, n)
    rng = np.random.default_rng(n)
    x = rng.uniform(3.0, 12.0, size=(24, n)) * rng.choice([-1.0, 1.0], size=(24, n))
    h = _fd_steps(spec, x)[1] if per_point else 1e-3
    calls, ref_calls = [], []
    f0, dg, d2g = fd_metric_derivatives(_recording(spec.family.metric, calls), x, h)
    ref = fd2_metric_derivatives(_recording(spec.family.metric, ref_calls), x, h)
    assert len(ref_calls) == 1 + 2 * n * n
    assert np.array_equal(np.concatenate(calls), np.concatenate(ref_calls))
    for got, want in zip((f0, dg, d2g), ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # fresh arrays, owned by the caller
    arrays = (f0, dg, d2g, x)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    for k in range(n):
        for m in range(n):
            assert np.array_equal(d2g[:, k, m], d2g[:, m, k])
    f0_before, d2g_before = f0.copy(), d2g.copy()
    dg += 1.0
    assert np.array_equal(f0, f0_before) and np.array_equal(d2g, d2g_before)


@pytest.mark.parametrize("N,calls", [(16, 2), (1024, 1 + 2 * 3 * 3), (1500, 1 + 2 * 3 * 3)])
def test_fd_stencil_stacks_small_point_sets(N, calls):
    # the centre alone, then the 18 shifted copies of an n = 3 stencil in as
    # few calls as fit 1024 rows: all of them for 16 points, one per call
    # once a copy alone has 1024 rows
    spec = asymptotically_schwarzschild(3, 1.0, derivative_mode="fd")
    x = np.random.default_rng(3).uniform(2.0, 20.0, size=(N, 3))
    seen = []
    fd_metric_derivatives(_recording(spec.family.metric, seen), x, 1e-3)
    assert len(seen) == calls
    assert seen[0].shape == (N, 3)
    assert sum(len(y) for y in seen) == (1 + 2 * 3 * 3) * N


@pytest.mark.parametrize("order,bound_mib", [(1, 80), (2, 140)])
def test_fd_jet_memory_is_bounded(order, bound_mib):
    # 10^4 points at n = 5: g is 1.9 MiB, dg 9.5 MiB and d2g 47.7 MiB.  The
    # stencil holds no more than one shifted metric besides its buffers
    spec = asymptotically_schwarzschild(5, 1.0, derivative_mode="fd")
    x = np.random.default_rng(5).uniform(2.0, 20.0, size=(10 ** 4, 5))
    tracemalloc.start()
    try:
        jet = metric_jet(spec, x, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(jet) == order + 1
    assert peak <= bound_mib * 2 ** 20, peak / 2 ** 20
