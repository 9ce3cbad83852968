"""Sequences of metrics, local C^2 windows, and semicontinuity experiments.

The central phenomenon: a sequence of asymptotically flat metrics can
converge in local C^2 norm to a limit of strictly smaller total mass (mass
escapes to infinity), while the reverse jump can never happen.  Each
experiment here builds such a sequence, measures

* the mass of every member,
* the C^2 distance between a fixed-size window of the member and the same
  window of the limit metric,

and fits the decay exponent of the distances, then checks the
semicontinuity verdict liminf mass_i >= mass_limit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BLOCK_ENTRIES
from .mass import adm_mass
from .metrics import (
    GeometryError,
    metric_at,
    metric_jet,
    scaled,
    schwarzschild,
)
from .shells import shell_mass, shell_metric

__all__ = [
    "WindowExitsChart",
    "GridMismatch",
    "WindowSample",
    "window_grid",
    "blow_up_window",
    "escaping_window",
    "c2_window_distance",
    "ExperimentReport",
    "run_semicontinuity_experiment",
    "EXPERIMENT_KINDS",
]


class WindowExitsChart(GeometryError):
    """Window box reaches outside the metric's valid chart region."""


class GridMismatch(GeometryError):
    """C^2 distance requested between samples on different grids."""


@dataclass(frozen=True)
class WindowSample:
    """Metric with two derivative orders sampled on a window grid.

    grid holds window coordinates (N, n); g, dg, d2g are the batched value
    and derivative arrays of the window metric at those points."""

    index: float
    center: np.ndarray
    grid: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def window_grid(n, half_width=1.0, q=4):
    """Uniform q^n grid on the box [-half_width, half_width]^n.

    Node offsets avoid the exact center (no node at the origin for even q)."""
    axis = np.linspace(-half_width, half_width, q) if q > 1 else np.array([0.0])
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _check_window(spec, pts):
    # a node within 1e-8 of the excluded region counts as inside it
    if np.any(spec.family.clearance(pts) <= 1e-8):
        raise WindowExitsChart(
            "window grid reaches inside the excluded chart region"
        )


def blow_up_window(spec, p, i, half_width=1.0, q=4):
    """Zoomed window at p: ghat(x) = A^T g(p + A x / i) A with A = g(p)^{-1/2}.

    The frame A makes ghat(0) the identity; derivatives pick up chain-rule
    factors 1/i and 1/i^2, so ghat -> flat in C^2 at rate 1/i."""
    n = spec.n
    p = np.asarray(p, dtype=float)
    # g(p)^{-1/2} from the eigendecomposition of g(p), positive definite by
    # the family's contract
    lam, V = np.linalg.eigh(metric_at(spec, p))
    A = (V / np.sqrt(lam)) @ V.T
    A = 0.5 * (A + A.T)
    grid = window_grid(n, half_width, q)
    pts = p[None, :] + grid @ A.T / i
    _check_window(spec, pts)
    # [ghat, dghat, d2ghat], filled in blocks of at most BLOCK_ENTRIES of d2g
    jet = [np.empty((len(pts),) + (n,) * (k + 2)) for k in range(3)]
    step = max(1, BLOCK_ENTRIES // n ** 4)
    for s in range(0, len(pts), step):
        for k, d in enumerate(metric_jet(spec, pts[s:s + step])):
            jet[k][s:s + step] = _in_frame(d, A) / i ** k
    return WindowSample(index=float(i), center=p, grid=grid, g=jet[0],
                        dg=jet[1], d2g=jet[2])


def _in_frame(t, A):
    """t with the frame A applied to each index past the first (the points),
    t_{.. i ..} A^i_a, one matmul per index: N n^{k+1} work for k indices."""
    for _ in range(t.ndim - 1):
        t = np.moveaxis(t @ A, -1, 1)
    return t


def escaping_window(spec, center, half_width=1.0, q=4):
    """Unit-scale window around an (escaping) center: g(center + x)."""
    n = spec.n
    center = np.asarray(center, dtype=float)
    grid = window_grid(n, half_width, q)
    pts = center[None, :] + grid
    _check_window(spec, pts)
    g, dg, d2g = metric_jet(spec, pts)
    return WindowSample(index=float(np.linalg.norm(center)), center=center,
                        grid=grid, g=g, dg=dg, d2g=d2g)


def c2_window_distance(sample, other=None):
    """Max-norm C^2 distance between two window samples (default: to flat).

    The max runs over grid points, tensor components, and derivative orders
    0, 1, 2; a flat comparison uses the identity metric with vanishing
    derivatives.  No copy of a whole window array is made against flat
    space, and one difference per order (its abs taken in place) against a
    second sample."""
    if other is None:
        n = sample.g.shape[-1]
        diffs = (sample.g - np.eye(n)[None], sample.dg, sample.d2g)
        return max(max(float(d.max()), -float(d.min())) for d in diffs)
    if sample.grid.shape != other.grid.shape or not np.allclose(
        sample.grid, other.grid
    ):
        raise GridMismatch("window samples live on different grids")
    pairs = ((sample.g, other.g), (sample.dg, other.dg), (sample.d2g, other.d2g))
    return max(_max_abs_difference(a, b) for a, b in pairs)


def _max_abs_difference(a, b):
    diff = a - b
    return float(np.abs(diff, out=diff).max())


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one semicontinuity experiment."""

    label: str
    kind: str
    indices: tuple
    masses: tuple
    limit_mass: float
    distances: tuple
    exponent: float
    expected_exponent: float
    verdict: bool
    drop: float
    details: dict = field(default_factory=dict)

    def csv_rows(self):
        return [
            [i, m, d] for i, m, d in zip(self.indices, self.masses, self.distances)
        ]

    csv_columns = ("index", "mass", "distance")

    def to_json(self):
        return {
            "label": self.label,
            "kind": self.kind,
            "indices": list(self.indices),
            "masses": list(self.masses),
            "limit_mass": self.limit_mass,
            "distances": list(self.distances),
            "exponent": self.exponent,
            "expected_exponent": self.expected_exponent,
            "verdict": bool(self.verdict),
            "drop": self.drop,
            "details": self.details,
        }


def _fit_exponent(indices, distances):
    """Fit distance ~ C index^{-p}; returns p (positive for decaying)."""
    idx = np.asarray(indices, dtype=float)
    dist = np.asarray(distances, dtype=float)
    keep = dist > 0.0
    if keep.sum() < 2:
        return math.inf
    slope, _ = np.polyfit(np.log(idx[keep]), np.log(dist[keep]), 1)
    return -float(slope)


def _experiment_report(label, kind, indices, masses, limit_mass, distances,
                       expected, details):
    """The report of every experiment kind, n-d and cone alike: fits the
    window exponent and decides the verdict liminf mass_i >= limit_mass,
    the liminf taken over the last two members, to within 1e-9."""
    liminf = min(masses[-2:])
    return ExperimentReport(
        label=label, kind=kind, indices=tuple(indices), masses=tuple(masses),
        limit_mass=limit_mass, distances=tuple(distances),
        exponent=_fit_exponent(indices, distances), expected_exponent=expected,
        verdict=liminf >= limit_mass - 1e-9, drop=liminf - limit_mass,
        details=details,
    )


EXPERIMENT_KINDS = ("blow_up", "escaping", "shells", "constant")


def run_semicontinuity_experiment(kind, n=3, indices=(2, 4, 8, 16),
                                  q=16, half_width=0.5, grid_q=4):
    """Run one canonical mass-semicontinuity experiment.

    blow_up, escaping and constant start from Schwarzschild of mass 1.

    blow_up   the homothety sequence i^2 g seen in zoomed windows at an
              off-center point; windows flatten at rate 1/i while the
              masses i^{n-2} grow without bound.
    escaping  unit windows around centers marching to infinity; flattening
              rate |center|^{-(n-2)} for a mass-carrying tail.
    shells    matter shells pushed outward; members are flat on any fixed
              window (distance decays like i^{2-n}) at constant mass.
    constant  the trivial sequence g_i = g; distances are exactly zero and
              no mass drops.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}")
    indices = tuple(int(i) for i in indices)

    if kind == "constant":
        m = adm_mass(schwarzschild(n, 1.0), q=q).value
        masses = [m for _ in indices]
        distances = [0.0 for _ in indices]
        expected = math.inf
        limit_mass = m
        details = {}
    elif kind == "blow_up":
        spec = schwarzschild(n, 1.0)
        p = np.full(n, 3.0 / math.sqrt(n))
        masses = [adm_mass(scaled(spec, float(i)), q=q).value for i in indices]
        distances = [
            c2_window_distance(blow_up_window(spec, p, i, half_width, grid_q))
            for i in indices
        ]
        expected = 1.0
        limit_mass = 0.0
        details = {"center": list(p)}
    elif kind == "escaping":
        spec = schwarzschild(n, 1.0)
        m_i = adm_mass(spec, q=q).value
        masses = [m_i for _ in indices]
        distances = []
        for i in indices:
            center = np.zeros(n)
            center[0] = float(i) * 4.0
            distances.append(
                c2_window_distance(escaping_window(spec, center, half_width, grid_q))
            )
        expected = float(n - 2)
        limit_mass = 0.0
        details = {"direction": "x1", "speed": 4.0}
    else:  # shells
        masses = []
        distances = []
        for i in indices:
            spec_i = shell_metric(n, i)
            masses.append(spec_i.family.mass_hint)
            distances.append(
                c2_window_distance(
                    escaping_window(spec_i, 0.21 * np.ones(n), half_width, grid_q)
                )
            )
        expected = float(n - 2)
        limit_mass = 0.0
        details = {"member_mass": shell_mass(n)}

    return _experiment_report(f"{kind} sequence (n={n})", kind, indices,
                              masses, limit_mass, distances, expected, details)
