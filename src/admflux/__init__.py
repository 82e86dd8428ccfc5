"""Mass and center-of-mass invariants of asymptotically flat metrics.

The package evaluates the classical flux integrals and their curvature-based
counterparts (Einstein tensor against conformal Killing fields) over spheres
and ellipsoids, and certifies empirically that the two routes agree in the
large-radius limit.
"""

from .analysis import (
    ConvergenceReport,
    compare,
    ellipsoid_family,
    fit_power_law,
    sweep,
    sweep_all,
)
from .catalog import CatalogSpec, build, rt_violator, standard_catalog
from .curvature import CurvatureBundle
from .errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    SingularMetricError,
    UndefinedCenterError,
)
from .invariants import (
    SurfaceEval,
    adm_mass_at,
    cs_center_at,
    identity_residuals,
    intrinsic_center_at,
    intrinsic_mass_at,
    scalar_curvature_moment,
)
from .metric_field import (
    DecayReport,
    MetricField,
    decay_report,
    fd_jet2,
    field_from_values,
    jet2_batch,
    parity_split,
)
from .surfaces import (
    QuadSurface,
    ellipsoid_quadrature,
    sphere_quadrature,
    unit_sphere_area,
    unit_sphere_rule,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogSpec",
    "ConfigError",
    "ConvergenceReport",
    "CurvatureBundle",
    "DecayReport",
    "DomainError",
    "MetricField",
    "NonFiniteError",
    "QuadSurface",
    "SingularMetricError",
    "SurfaceEval",
    "UndefinedCenterError",
    "adm_mass_at",
    "build",
    "compare",
    "cs_center_at",
    "decay_report",
    "ellipsoid_family",
    "ellipsoid_quadrature",
    "fd_jet2",
    "field_from_values",
    "fit_power_law",
    "identity_residuals",
    "intrinsic_center_at",
    "intrinsic_mass_at",
    "jet2_batch",
    "parity_split",
    "rt_violator",
    "scalar_curvature_moment",
    "sphere_quadrature",
    "standard_catalog",
    "sweep",
    "sweep_all",
    "unit_sphere_area",
    "unit_sphere_rule",
]
