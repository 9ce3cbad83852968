import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from afmass import sequences
from afmass.mass import adm_mass
from afmass.metrics import (
    asymptotically_schwarzschild,
    metric_derivatives_at,
    metric_jet,
    schwarzschild,
    translated,
)
from afmass.sequences import (
    EXPERIMENT_KINDS,
    GridMismatch,
    WindowExitsChart,
    blow_up_window,
    c2_window_distance,
    escaping_window,
    run_semicontinuity_experiment,
    window_grid,
)


class TestWindowGrid:
    def test_shape_and_bounds(self):
        grid = window_grid(3, half_width=0.5, q=4)
        assert grid.shape == (64, 3)
        assert np.abs(grid).max() == pytest.approx(0.5)

    def test_even_q_avoids_center(self):
        grid = window_grid(3, half_width=1.0, q=4)
        assert np.linalg.norm(grid, axis=1).min() > 0.1


class TestBlowUpWindow:
    def test_normalized_at_center(self):
        spec = schwarzschild(3, 1.0)
        p = np.array([3.0, 1.0, 0.5])
        # tiny window: values stay close to the frame-normalized identity
        sample = blow_up_window(spec, p, 64, half_width=0.5, q=2)
        assert np.allclose(sample.g, np.eye(3), atol=1e-2)

    def test_distance_halves_with_zoom(self):
        spec = schwarzschild(3, 1.0)
        p = np.array([3.0, 1.0, 0.5])
        dists = [
            c2_window_distance(blow_up_window(spec, p, i, 0.5, 4))
            for i in (4, 8, 16)
        ]
        for a, b in zip(dists, dists[1:]):
            assert 1.7 < a / b < 2.3

    def test_frame_matches_one_einsum(self):
        # one matmul per index against the single einsums over all indices
        spec = asymptotically_schwarzschild(4, 1.0, c=0.3)
        p = np.array([2.0, 1.0, -0.5, 1.5])
        i = 3
        sample = blow_up_window(spec, p, i, half_width=0.5, q=3)
        lam, V = np.linalg.eigh(metric_jet(spec, p, 0)[0])
        A = (V / np.sqrt(lam)) @ V.T
        A = 0.5 * (A + A.T)
        pts = p + sample.grid @ A.T / i
        dg, d2g = metric_derivatives_at(spec, pts, order=2)
        expected = [
            np.einsum("ia,nij,jb->nab", A, metric_jet(spec, pts, 0)[0], A),
            np.einsum("nmij,mk,ia,jb->nkab", dg, A, A, A) / i,
            np.einsum("nmpij,mk,pl,ia,jb->nklab", d2g, A, A, A, A) / i ** 2,
        ]
        for got, want in zip((sample.g, sample.dg, sample.d2g), expected):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_blocks_match_one_block(self, monkeypatch):
        spec = asymptotically_schwarzschild(4, 1.0, c=0.3)
        p = np.array([2.0, 1.0, -0.5, 1.5])
        whole = blow_up_window(spec, p, 3, half_width=0.5, q=3)
        # 10 nodes a block: 81 nodes in 9 blocks, the last one short
        monkeypatch.setattr(sequences, "BLOCK_ENTRIES", 10 * 4 ** 4 + 1)
        split = blow_up_window(spec, p, 3, half_width=0.5, q=3)
        for a, b in ((whole.g, split.g), (whole.dg, split.dg), (whole.d2g, split.d2g)):
            assert np.allclose(a, b, rtol=1e-15, atol=0.0)

    def test_window_guard(self):
        spec = schwarzschild(3, 1.0, inner_radius=0.5)
        with pytest.raises(WindowExitsChart):
            blow_up_window(spec, np.array([0.6, 0.0, 0.0]), 1, half_width=1.0, q=4)


class TestOneJetPerNode:
    """Each window node gets one order-2 jet, which holds g as well; the
    only order-0 jet is the blow-up window's one-point centre."""

    @staticmethod
    def _record(monkeypatch, spec):
        calls = []

        def recording(x, order, fn=spec.family.jet):
            calls.append((order, len(x)))
            return fn(x, order)

        monkeypatch.setattr(spec.family, "jet", recording)
        return calls

    def test_blow_up_window(self, monkeypatch):
        spec = schwarzschild(4, 1.0)
        calls = self._record(monkeypatch, spec)
        # 4 nodes a block: 256 nodes in 64 blocks
        monkeypatch.setattr(sequences, "BLOCK_ENTRIES", 4 * 4 ** 4)
        blow_up_window(spec, np.array([2.0, 1.0, -0.5, 1.5]), 3, 0.5, 4)
        assert calls[0] == (0, 1)
        assert calls[1:] == [(2, 4)] * 64

    def test_escaping_window(self, monkeypatch):
        spec = schwarzschild(4, 1.0)
        calls = self._record(monkeypatch, spec)
        escaping_window(spec, np.array([20.0, 0.0, 0.0, 0.0]), 0.5, 4)
        assert calls == [(2, 256)]


class TestEscapingWindow:
    def test_matches_translated_metric(self):
        spec = schwarzschild(3, 1.0)
        center = np.array([20.0, 0.0, 0.0])
        sample = escaping_window(spec, center, half_width=0.5, q=3)
        shifted = translated(spec, center)
        assert np.allclose(
            sample.g, metric_jet(shifted, sample.grid, 0)[0], atol=1e-12
        )

    def test_distance_decays_at_metric_rate(self):
        # unweighted C^2 distance to flat: dominated by g - delta = O(1/r)
        spec = schwarzschild(3, 1.0)
        d1 = c2_window_distance(escaping_window(spec, np.array([20.0, 0, 0]), 0.5, 4))
        d2 = c2_window_distance(escaping_window(spec, np.array([40.0, 0, 0]), 0.5, 4))
        assert 1.7 < d1 / d2 < 2.3


class TestC2Distance:
    def test_zero_against_self(self):
        spec = schwarzschild(3, 1.0)
        s = escaping_window(spec, np.array([10.0, 0, 0]), 0.5, 3)
        assert c2_window_distance(s, s) == 0.0

    def test_symmetric(self):
        spec = schwarzschild(3, 1.0)
        a = escaping_window(spec, np.array([10.0, 0, 0]), 0.5, 3)
        b = escaping_window(schwarzschild(3, 0.5), np.array([10.0, 0, 0]), 0.5, 3)
        assert c2_window_distance(a, b) == pytest.approx(
            c2_window_distance(b, a), rel=1e-14
        )

    def test_grid_mismatch(self):
        spec = schwarzschild(3, 1.0)
        a = escaping_window(spec, np.array([10.0, 0, 0]), 0.5, 3)
        b = escaping_window(spec, np.array([10.0, 0, 0]), 0.5, 4)
        with pytest.raises(GridMismatch):
            c2_window_distance(a, b)

    def test_nonnegative_and_flat_reference(self):
        spec = schwarzschild(3, 1.0)
        s = escaping_window(spec, np.array([10.0, 0, 0]), 0.5, 3)
        assert c2_window_distance(s) > 0.0

    @staticmethod
    def _abs_copy_distance(a, b=None):
        # the distance from full-size abs copies of each difference
        n = a.g.shape[-1]
        diffs = ((a.g - np.eye(n)[None], a.dg, a.d2g) if b is None
                 else (a.g - b.g, a.dg - b.dg, a.d2g - b.d2g))
        return max(float(np.abs(d).max()) for d in diffs)

    def test_equals_abs_copy_distance(self):
        a = blow_up_window(asymptotically_schwarzschild(4, 1.0, c=-0.8),
                           np.full(4, 1.5), 2, 0.5, 3)
        b = blow_up_window(schwarzschild(4, 1.0), np.full(4, 1.5), 2, 0.5, 3)
        # the mirror of a about flat space has the same distance, set by
        # its most negative entry where a's is set by its largest
        n = a.g.shape[-1]
        mirror = dataclasses.replace(a, g=2.0 * np.eye(n) - a.g, dg=-a.dg, d2g=-a.d2g)
        for s in (a, b, mirror):
            assert c2_window_distance(s) == self._abs_copy_distance(s)
        assert c2_window_distance(mirror) == c2_window_distance(a)
        assert c2_window_distance(a, b) == self._abs_copy_distance(a, b)

    def test_flat_distance_copies_no_window_array(self):
        s = blow_up_window(schwarzschild(6, 1.0), np.full(6, 1.5), 2, 0.5, 4)
        tracemalloc.start()
        try:
            distance = c2_window_distance(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distance == self._abs_copy_distance(s)
        assert peak < 0.1 * s.d2g.nbytes, (peak, s.d2g.nbytes)


class TestExperiments:
    def test_constant_sequence_equality(self, monkeypatch):
        calls = []

        def counting(spec, **kw):
            calls.append(spec)
            return adm_mass(spec, **kw)

        # every member is the same metric: its mass is computed once
        monkeypatch.setattr(sequences, "adm_mass", counting)
        rep = run_semicontinuity_experiment("constant", n=3, indices=(1, 2, 3))
        assert len(calls) == 1
        assert rep.verdict
        assert rep.drop == 0.0
        assert all(d == 0.0 for d in rep.distances)
        assert rep.masses == (rep.masses[0],) * 3
        assert rep.masses[0] == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("kind", ["blow_up", "escaping", "shells"])
    def test_mass_drop_sequences(self, kind):
        rep = run_semicontinuity_experiment(kind, n=3, indices=(2, 4, 8, 16))
        assert rep.verdict
        assert rep.drop > 0.0
        assert rep.limit_mass == 0.0
        # distances decay monotonically at the expected rate
        assert list(rep.distances) == sorted(rep.distances, reverse=True)
        assert rep.exponent == pytest.approx(rep.expected_exponent, rel=0.15)

    def test_shells_keep_exact_mass(self):
        rep = run_semicontinuity_experiment("shells", n=3, indices=(2, 4))
        assert all(
            m == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)
            for m in rep.masses
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_semicontinuity_experiment("nope")

    def test_kinds_registry(self):
        assert set(EXPERIMENT_KINDS) == {"blow_up", "escaping", "shells", "constant"}

    def test_verdict_tolerance(self):
        # liminf over the last two masses, against the limit less 1e-9
        def report(masses):
            return sequences._experiment_report(
                "x", "x", (1, 2, 4), masses, 1.0, (1.0, 0.5, 0.25), 1.0, {})

        held = report((0.0, 1.0 - 5e-10, 2.0))
        assert held.verdict and held.drop == pytest.approx(-5e-10)
        assert held.exponent == pytest.approx(1.0)
        assert not report((2.0, 1.0 - 2e-9, 2.0)).verdict

    def test_report_serialization(self):
        rep = run_semicontinuity_experiment("constant", n=3, indices=(1, 2))
        doc = rep.to_json()
        assert doc["verdict"] is True
        rows = rep.csv_rows()
        assert len(rows) == 2 and len(rows[0]) == 3
