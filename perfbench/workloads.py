"""Seeded workloads of afmass CLI jobs, each with its analytic reference.

A workload is a fixed list of job *shapes* (a shape may be listed more than
once). One pass runs every entry once, in an order drawn from the seed; each
entry draws its physical parameters (m, c, lambda, alpha) afresh for every
pass, or, for the commands that take none, a window half-width. Dimension,
quadrature order, radii count and indices are fixed per shape, so the work
done in a pass does not depend on the seed.

Why each workload exists (see README.md for the measurements behind this):

* dense  -- non-symmetric and window jobs whose calls carry 1e3..1e5 points:
            the array kernels in metrics, curvature, spheres, mass, weighted
            and sequences do the work, and the grids set the memory peak.
* shells -- matter-shell jobs: rotationally symmetric, so the grid kernels
            take the one-node shortcut and the per-point Python loops of the
            shell profile (u -> v -> Q) do almost all the work; its many
            10..40 ms jobs carry the per-call cost (Gauss-Legendre rules
            rebuilt on every call, CLI and report I/O).

References and tolerances follow the test suite (table in README.md).
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("dense", "shells")

# Documented defects of the program at the commit that defined this
# benchmark. A job tagged with one of these is expected to fail with the
# listed problem codes; it still counts as failed, and any other failure
# makes the run incorrect.
KNOWN_DEFECTS = {
    "fg-generic-n5": (
        "generic fg-profile at n=5 diverges at large r "
        "(fg(S_r) = 0.95, 0.51, -2.6, -35 at r = 20..160 for q=6, m=1)",
        {"reference"},
    ),
    "fd-roundoff-large-r": (
        "fd-mode adm-mass differences g, not g - delta, so at n=5 the flux "
        "error grows like r^3 (0.08..1.8 on radii 1000/4000)",
        {"reference"},
    ),
    "infinite-exponent": (
        "constant experiments write \"exponent\": Infinity, "
        "which strict JSON rejects",
        {"non_strict_json"},
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checks its reports must pass.

    shape  stable label, identical across seeds and passes;
    n      ambient dimension (2 for cones), recorded on trace spans;
    config the JSON config document handed to `afmass --config`;
    expect reference checks, interpreted by checks.check_job;
    known_defect key into KNOWN_DEFECTS, or None.
    """

    shape: str
    n: int
    config: dict
    expect: tuple
    known_defect: str = None


def unit_sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def shell_mass(n):
    """Mass 2 / ((n-2) omega_{n-1}) of every unit-density shell metric."""
    return 2.0 / ((n - 2) * unit_sphere_area(n))


# ---------------------------------------------------------------------------
# metric specs with their exact masses


def _asymptotically_schwarzschild(rng, n, fd=False):
    m = rng.uniform(0.5, 2.0)
    c = rng.uniform(0.05, 0.3)
    spec = {"n": n, "family": "AsymptoticallySchwarzschild",
            "params": {"m": m, "c": c}}
    if fd:
        spec["derivative_mode"] = "fd"
    return spec, m


def _scaled_shell(rng, n, i):
    lam = rng.uniform(0.5, 2.0)
    base = {"n": n, "family": "ShellConformal", "params": {"i": i}}
    spec = {"n": n, "family": "Scaled", "params": {"base": base, "lambda": lam}}
    return spec, lam ** (n - 2) * shell_mass(n)


# ---------------------------------------------------------------------------
# job shapes: each takes an rng and returns a Job


def adm_mass(n, q, radii, fd=False, known_defect=None):
    mode = "/fd" if fd else ""
    if known_defect:
        mode += f"/r{radii[-1]:g}"

    def build(rng):
        spec, mass = _asymptotically_schwarzschild(rng, n, fd)
        return Job(
            shape=f"adm-mass/AS{mode}/n{n}", n=n,
            config={"command": "adm-mass", "spec": spec, "radii": list(radii),
                    "q": q},
            expect=(("close", "adm_mass.json", ("value",), mass, 1e-3, "abs"),),
            known_defect=known_defect,
        )

    return build


def fg_profile(n, q, radii, known_defect=None):
    def build(rng):
        spec, mass = _asymptotically_schwarzschild(rng, n)
        return Job(
            shape=f"fg-profile/AS/n{n}", n=n,
            config={"command": "fg-profile", "spec": spec, "radii": list(radii),
                    "q": q},
            expect=(("close", "fg_limit.json", ("value",), mass, 2e-2, "abs"),),
            known_defect=known_defect,
        )

    return build


def weighted_mass(n, q):
    """Divergence-form mass and matter defect of one metric.

    `mass` is checked with the ADM tolerance; `mass_via_divergence` with the
    2e-3 of acceptance criterion 5, which compares it against the flux mass."""

    def build(rng):
        spec, mass = _asymptotically_schwarzschild(rng, n)
        return Job(
            shape=f"weighted-mass/AS/n{n}", n=n,
            config={"command": "weighted-mass", "spec": spec, "q": q},
            expect=(
                ("close", "defect_report.json", ("mass",), mass, 1e-3, "abs"),
                ("close", "defect_report.json",
                 ("mass_via_divergence", "value"), mass, 2e-3, "abs"),
            ),
        )

    return build


def weighted_shell_indices(n, indices, q):
    """Matter defects of several shell metrics: masses and decaying defects."""

    def build(rng):
        return Job(
            shape=f"weighted-mass/shell-indices/n{n}", n=n,
            config={"command": "weighted-mass", "n": n,
                    "indices": list(indices), "q": q},
            expect=(("shell_defects", shell_mass(n), 1e-3),),
        )

    return build


def weighted_scaled_shell(n, i, q):
    def build(rng):
        spec, mass = _scaled_shell(rng, n, i)
        return Job(
            shape=f"weighted-mass/Scaled-shell{i}/n{n}", n=n,
            config={"command": "weighted-mass", "spec": spec, "q": q},
            expect=(
                ("close", "defect_report.json", ("mass",), mass, 1e-3, "rel"),
                ("close", "defect_report.json",
                 ("mass_via_divergence", "value"), mass, 2e-3, "rel"),
            ),
        )

    return build


def shell_adm_mass(n, i, radii):
    def build(rng):
        spec, mass = _scaled_shell(rng, n, i)
        return Job(
            shape=f"adm-mass/Scaled-shell{i}/n{n}", n=n,
            config={"command": "adm-mass", "spec": spec, "radii": list(radii),
                    "q": 8},
            expect=(("close", "adm_mass.json", ("value",), mass, 1e-3, "rel"),),
        )

    return build


def shell_fg_profile(n, i, radii):
    def build(rng):
        spec, mass = _scaled_shell(rng, n, i)
        return Job(
            shape=f"fg-profile/Scaled-shell{i}/n{n}", n=n,
            config={"command": "fg-profile", "spec": spec, "radii": list(radii),
                    "q": 8},
            expect=(("close", "fg_limit.json", ("value",), mass, 2e-2, "abs"),),
        )

    return build


# expected window-convergence exponents, as documented in afmass.sequences
def _expected_exponent(kind, n):
    return {"blow_up": 1.0, "escaping": float(n - 2), "shells": float(n - 2)}[kind]


def sequence(kind, n, resolution=None):
    """Semicontinuity experiment; the command takes no physical parameter,
    so the seed draws the window half-width."""

    def build(rng):
        config = {"command": "sequence", "kind": kind, "n": n,
                  "window_L": rng.uniform(0.45, 0.55)}
        if resolution is not None:
            config["resolution"] = resolution
        if kind == "constant":
            expect = (("constant_experiment",),)
            defect = "infinite-exponent"
        else:
            expect = (("experiment", _expected_exponent(kind, n)),)
            defect = None
        return Job(shape=f"sequence/{kind}/n{n}", n=n, config=config,
                   expect=expect, known_defect=defect)

    return build


def cone_angle():
    def build(rng):
        alpha = rng.uniform(0.3, 0.9)
        return Job(
            shape="cone-angle/capped", n=2,
            config={"command": "cone-angle", "alpha": alpha},
            expect=(("close", "cone_mass.json", ("value",), 1.0 - alpha, 1e-10,
                     "abs"),),
        )

    return build


def cone_constant_sequence():
    def build(rng):
        return Job(
            shape="cone-sequence/constant", n=2,
            config={"command": "cone-sequence", "kind": "constant",
                    "alpha": rng.uniform(0.3, 0.9)},
            expect=(("constant_experiment",),),
            known_defect="infinite-exponent",
        )

    return build


def translated_shell_fg_profile(n, q, radii):
    """fg-profile of an off-centre shell metric with FD derivatives: the
    generic sphere route (chart pullback, induced metric, FD stencils) on a
    small grid."""

    def build(rng):
        base = {"n": n, "family": "ShellConformal", "params": {"i": 1}}
        offset = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        spec = {"n": n, "family": "Translated", "derivative_mode": "fd",
                "params": {"base": base, "offset": offset}}
        return Job(
            shape=f"fg-profile/Translated-shell1/fd/n{n}", n=n,
            config={"command": "fg-profile", "spec": spec,
                    "radii": list(radii), "q": q},
            expect=(("close", "fg_limit.json", ("value",), shell_mass(n), 2e-2,
                     "abs"),),
        )

    return build


# ---------------------------------------------------------------------------
# the workloads

ADM_RADII = (50.0, 100.0, 200.0, 400.0)
FG_RADII = (20.0, 40.0, 80.0, 160.0)
# at q=4 the n=5 generic fg misses its reference by 0.025..0.2 on 20..160,
# close enough to the tolerance that some draws pass; on 40..320 every draw
# misses by more than 0.13 (the defect grows with r)
FG_N5_RADII = (40.0, 80.0, 160.0, 320.0)
# two radii keep the n=7 grid job (117,649 nodes per sphere) near 1 s
DENSE_ADM_RADII = (100.0, 400.0)
# FD roundoff in the flux grows like r^3 at n=5: on 50/100 the error stays
# below 1e-4, on 100/400 it misses 1e-3 in about one draw in twenty, and on
# 1000/4000 every draw misses by more than 0.08 (the documented defect)
DENSE_FD_RADII = (50.0, 100.0)
FD_DEFECT_RADII = (1000.0, 4000.0)


# Every workload runs each traced layer at least once a pass (the cone-angle,
# shell and Translated jobs outside a workload's focus), so no per-layer
# time reads zero. Pass sizes put p50 and p90 inside a block of same-shape
# samples rather than on the edge between two shapes.


def _dense():
    # 31 jobs a pass. The n=7 grid and n=5 generic fg jobs are the slowest
    # 6.5%, so p90 falls among the blow_up windows; p50 falls among the
    # eight fd jobs
    return (
        [adm_mass(5, 8, DENSE_ADM_RADII)] * 8
        + [adm_mass(6, 7, DENSE_ADM_RADII), adm_mass(7, 7, DENSE_ADM_RADII)]
        + [adm_mass(5, 6, DENSE_FD_RADII, fd=True)] * 7
        + [adm_mass(5, 6, FD_DEFECT_RADII, fd=True,
                    known_defect="fd-roundoff-large-r")]
        + [fg_profile(3, 8, FG_RADII), fg_profile(4, 6, FG_RADII),
           fg_profile(5, 4, FG_N5_RADII, known_defect="fg-generic-n5")]
        + [weighted_mass(3, 6)] * 3
        + [sequence("blow_up", 4, resolution=3)] * 4
        + [cone_angle(), sequence("escaping", 3),
           shell_adm_mass(3, 1, ADM_RADII)]
    )


def _shells():
    # 45 jobs a pass: 8 heavy ones (0.3..5 s; p90 falls among the four n=4
    # shell sequences, four so that its shape has enough samples in a run),
    # 5 outside the focus, and 32 cheap ones (the shell solve and
    # closed-form sphere data, ~10..40 ms, where p50 falls)
    cheap = []
    for n in (3, 4):
        for i in (1, 2, 4, 8):
            cheap += [shell_adm_mass(n, i, ADM_RADII),
                      shell_fg_profile(n, i, FG_RADII)]
    return (
        [weighted_shell_indices(3, (1, 2), 4),
         weighted_shell_indices(4, (1, 2), 4),
         weighted_scaled_shell(3, 2, 4),
         sequence("shells", 3, resolution=2),
         sequence("shells", 4, resolution=2),
         sequence("shells", 4, resolution=2),
         sequence("shells", 4, resolution=2),
         sequence("shells", 4, resolution=2),
         cone_angle(),
         cone_constant_sequence(),
         sequence("constant", 3),
         sequence("blow_up", 3),
         translated_shell_fg_profile(3, 4, FG_RADII)]
        + cheap * 2
    )


SHAPES = {"dense": _dense(), "shells": _shells()}


def make_pass(workload, seed, index):
    """Jobs of pass `index`: fresh parameters, seeded order."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = [shape(rng) for shape in SHAPES[workload]]
    rng.shuffle(jobs)
    return jobs
