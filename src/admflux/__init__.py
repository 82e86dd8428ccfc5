"""Mass and center-of-mass invariants of asymptotically flat metrics.

The package evaluates the classical flux integrals and their curvature-based
counterparts (Einstein tensor against conformal Killing fields) over spheres
and ellipsoids, and certifies empirically that the two routes agree in the
large-radius limit.
"""

from .analysis import (
    ConvergenceReport,
    compare,
    fit_power_law,
    sweep,
)
from .catalog import CatalogSpec, build
from .curvature import CurvatureBundle
from .errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    SingularMetricError,
    UndefinedCenterError,
)
from .invariants import (
    identity_residuals,
    scalar_curvature_moment,
    surface_totals,
)
from .metric_field import (
    MetricField,
    decay_report,
    fd_jet2,
    jet2_batch,
    parity_parts,
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
    "DomainError",
    "MetricField",
    "NonFiniteError",
    "QuadSurface",
    "SingularMetricError",
    "UndefinedCenterError",
    "build",
    "compare",
    "decay_report",
    "ellipsoid_quadrature",
    "fd_jet2",
    "fit_power_law",
    "identity_residuals",
    "jet2_batch",
    "parity_parts",
    "scalar_curvature_moment",
    "sphere_quadrature",
    "surface_totals",
    "sweep",
    "unit_sphere_area",
    "unit_sphere_rule",
]
