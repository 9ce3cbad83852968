"""Sequences of metrics, local C^2 windows, and semicontinuity experiments.

The central phenomenon: a sequence of asymptotically flat metrics can
converge in local C^2 norm to a limit of strictly smaller total mass (mass
escapes to infinity), while the reverse jump can never happen.  Every
experiment kind lives here, the n-d ones (run_semicontinuity_experiment)
and the 2-d cone ones (cone_semicontinuity_experiment), whose mass is the
angle defect.  A kind is one member function i -> (mass, window distance):

* the mass of the i-th member,
* the C^2 distance between a fixed-size window of the member and the same
  window of the limit,

and one driver, _experiment_report, runs it over strictly increasing
indices, fits the decay exponent of the distances and checks the
semicontinuity verdict liminf mass_i >= mass_limit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import capped_cone, cone_blow_up_profile, cone_mass, perturbed_cone
from .geometry import BLOCK_ENTRIES
from .mass import adm_mass
from .metrics import (
    GeometryError,
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
    "cone_semicontinuity_experiment",
    "CONE_EXPERIMENT_KINDS",
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

    grid: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def window_grid(n, half_width=1.0, q=4):
    """Uniform q^n grid on the box [-half_width, half_width]^n.

    Node offsets avoid the exact center (no node at the origin for even q).
    Raises OverflowError where the squared half-diagonal n half_width^2,
    which a metric evaluation at a corner takes as |x|^2, does not fit a
    float, whatever the warnings filter."""
    # in Python floats the product reaches inf without a numpy warning
    if not math.isfinite(n * float(half_width) * float(half_width)):
        raise OverflowError(
            f"window half-width {half_width:g}: |x|^2 overflows at its corners")
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
    lam, V = np.linalg.eigh(metric_jet(spec, p, 0)[0])
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
    return WindowSample(grid=grid, g=jet[0], dg=jet[1], d2g=jet[2])


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
    return WindowSample(grid=grid, g=g, dg=dg, d2g=d2g)


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


def _experiment_report(label, kind, indices, member, limit_mass, expected,
                       details):
    """The report of every experiment kind, n-d and cone alike.

    member(i) -> (mass, window distance) of the i-th member, called once per
    index in order; indices must be strictly increasing (ValueError), as
    the verdict reads the last two members.  Fits the window exponent and
    decides the verdict liminf mass_i >= limit_mass, the liminf taken over
    the last two members, to within 1e-9."""
    indices = tuple(int(i) for i in indices)
    if not indices or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(
            f"indices must be non-empty and strictly increasing, got {list(indices)}")
    masses, distances = zip(*(member(i) for i in indices))
    liminf = min(masses[-2:])
    return ExperimentReport(
        label=label, kind=kind, indices=indices, masses=masses,
        limit_mass=limit_mass, distances=distances,
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
    if kind == "constant":
        m = adm_mass(schwarzschild(n, 1.0), q=q).value

        def member(i):
            return m, 0.0
        limit_mass, expected, details = m, math.inf, {}
    elif kind == "blow_up":
        spec = schwarzschild(n, 1.0)
        p = np.full(n, 3.0 / math.sqrt(n))

        def member(i):
            window = blow_up_window(spec, p, i, half_width, grid_q)
            return adm_mass(scaled(spec, float(i)), q=q).value, c2_window_distance(window)
        limit_mass, expected, details = 0.0, 1.0, {"center": list(p)}
    elif kind == "escaping":
        spec = schwarzschild(n, 1.0)
        m = adm_mass(spec, q=q).value

        def member(i):
            center = np.zeros(n)
            center[0] = float(i) * 4.0
            return m, c2_window_distance(escaping_window(spec, center, half_width, grid_q))
        limit_mass, expected, details = 0.0, float(n - 2), {"direction": "x1", "speed": 4.0}
    else:  # shells
        def member(i):
            spec_i = shell_metric(n, i)
            window = escaping_window(spec_i, 0.21 * np.ones(n), half_width, grid_q)
            return spec_i.family.mass_hint, c2_window_distance(window)
        limit_mass, expected, details = 0.0, float(n - 2), {"member_mass": shell_mass(n)}
    return _experiment_report(f"{kind} sequence (n={n})", kind, indices,
                              member, limit_mass, expected, details)


def _profile_c2_distance(prof, reference, rr):
    """C^2 distance of two rotation profiles on the radii rr.

    Compares the scale-free circumference ratio f/r plus both derivatives;
    reference may be None (flat plane: f = r)."""
    f, df, d2f = prof.jet(rr, 2)
    if reference is None:
        return max(
            float(np.abs(f / rr - 1.0).max()),
            float(np.abs(df - 1.0).max()),
            float(np.abs(d2f).max()),
        )
    ref_f, ref_df, ref_d2f = reference.jet(rr, 2)
    return max(
        float(np.abs((f - ref_f) / rr).max()),
        float(np.abs(df - ref_df).max()),
        float(np.abs(d2f - ref_d2f).max()),
    )


CONE_EXPERIMENT_KINDS = ("blow_up", "escaping", "constant")

#: the annulus lo < r < hi (scaled by 4 i for escaping windows) and its
#: number of sample radii on which cone experiments measure C^2 distances
CONE_WINDOW = (0.5, 1.0)
CONE_WINDOW_SAMPLES = 64


def cone_semicontinuity_experiment(kind="blow_up", alpha=0.7,
                                   indices=(4, 8, 16, 32)):
    """Semicontinuity experiments for the cone-angle mass.

    blow_up   rescaled caps f_i(r) = i f(r/i): every member keeps mass
              1 - alpha, yet on a fixed annulus the surfaces flatten to the
              plane (limit mass 0) at C^2 rate i^{-2} -- a strict drop.
    escaping  windows of perturbed_cone(alpha) around escaping radii: the
              limit is the exact cone, same mass, drop 0, rate i^{-(tau+1)}
              with tau = 1.
    constant  the same surface at every index; distances exactly zero.
    """
    if kind not in CONE_EXPERIMENT_KINDS:
        raise ValueError(f"kind must be one of {CONE_EXPERIMENT_KINDS}")
    lo, hi = CONE_WINDOW
    if kind == "blow_up":
        base = capped_cone(alpha)
        rr = np.linspace(lo, hi, CONE_WINDOW_SAMPLES)

        def member(i):
            prof = cone_blow_up_profile(base, float(i))
            # evaluation radii must clear the rescaled cap
            radii = (4.0 * i, 8.0 * i, 16.0 * i, 32.0 * i)
            return cone_mass(prof, radii=radii).value, _profile_c2_distance(prof, None, rr)
        limit_mass, expected, label = 0.0, 2.0, f"cone cap blow-up (alpha={alpha})"
    elif kind == "escaping":
        prof = perturbed_cone(alpha)
        exact = capped_cone(alpha)

        def member(i):
            rr = np.linspace(4.0 * i * lo, 4.0 * i * hi, CONE_WINDOW_SAMPLES)
            radii = tuple(2.0 ** k * i for k in range(2, 6))
            return cone_mass(prof, radii=radii).value, _profile_c2_distance(prof, exact, rr)
        limit_mass, expected = 1.0 - alpha, 2.0
        label = f"escaping windows on perturbed cone (alpha={alpha})"
    else:
        m = cone_mass(capped_cone(alpha)).value

        def member(i):
            return m, 0.0
        limit_mass, expected, label = m, math.inf, f"constant cone sequence (alpha={alpha})"
    return _experiment_report(
        label, f"cone_{kind}", indices, member, limit_mass, expected,
        {"alpha": alpha, "window": list(CONE_WINDOW)},
    )
