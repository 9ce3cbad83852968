"""Mass functionals of asymptotically flat Riemannian metrics.

Library layout:

* ``metrics``    metric families and their derivatives at points
* ``geometry``   spherical charts and quadrature
* ``curvature``  coordinate curvature (``scalar_curvature``) and FD stencils
* ``spheres``    area / mean curvature / induced curvature of spheres
* ``mass``       flux-integral mass and the quasi-local functional fg
* ``weighted``   weighted norms, divergence-form mass, matter defects
* ``shells``     conformal metrics sourced by escaping matter shells
* ``sequences``  window convergence and semicontinuity experiments
* ``cone``       2D conical surfaces and the angle-defect mass
* ``cli``        the ``afmass`` command-line tool
"""

# the one source of the version: pyproject.toml reads it, and every report
# carries it (reports.package_version)
__version__ = "0.1.0"

from .cone import (
    ConicalSurface,
    capped_cone,
    cone_mass,
    cone_metric_spec,
    cone_semicontinuity_experiment,
    geodesic_curvature_integral,
    perturbed_cone,
    total_gauss_curvature,
)
from .curvature import scalar_curvature
from .geometry import SphereQuadrature, sample_spheres, unit_sphere_area
from .mass import (
    MassEstimate,
    adm_flux,
    adm_mass,
    extrapolate,
    fg,
    fg_detail,
    fg_limit,
    fit_inverse_power,
    penrose_like_check,
)
from .metrics import (
    GeometryError,
    MetricSpec,
    NotPositiveDefinite,
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
from .sequences import (
    ExperimentReport,
    WindowSample,
    blow_up_window,
    c2_window_distance,
    escaping_window,
    run_semicontinuity_experiment,
)
from .shells import (
    default_shell_density,
    shell_mass,
    shell_matter_coupling,
    shell_metric,
    solve_shell_potential,
)
from .spheres import (
    SphereReport,
    sphere_area,
    sphere_report,
)
from .weighted import (
    DefectReport,
    WeightedNormParams,
    d_operator_at,
    mass_matter_defect,
    mass_via_divergence,
    matter_integral,
    weighted_seminorm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
