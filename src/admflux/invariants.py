"""Mass and center-of-mass functionals and the exact integral identities behind them.

Two routes to the same invariants are kept deliberately separate:

* flux form -- first derivatives of the metric against the *Euclidean* normal
  and area element (:func:`adm_mass_at`, :func:`cs_center_at`);
* curvature form -- the Einstein tensor contracted with a conformal Killing
  field against the *metric* normal and area element
  (:func:`intrinsic_mass_at`, :func:`intrinsic_center_at`).

Their agreement in the large-radius limit is what the analysis layer
certifies, so no silent substitution of normals or measures is made anywhere.
All reductions use ``math.fsum`` in node order for run-to-run determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_arrays
from .errors import DomainError, UndefinedCenterError
from .metric_field import Array, MetricField, jet2_batch
from .surfaces import (
    QuadSurface,
    check_surface_in_domain,
    g_normals_and_areas,
    gauss_jacobi,
    unit_sphere_area,
    unit_sphere_rule,
)

#: Center functionals are undefined for |mass| below this threshold.
MASS_THRESHOLD = 1e-8


def field_X(x) -> Array:
    """Dilation field: ``X(x) = x``."""
    return np.asarray(x, dtype=float).copy()


def field_Y(alpha: int, x) -> Array:
    """Special conformal generator ``Y^i = |x|^2 delta^(alpha i) - 2 x^alpha x^i``.

    ``alpha`` is 1-based, matching the component index of the center of mass
    it computes.  ``Y`` is even: ``Y(-x) = Y(x)``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 1 <= alpha <= n:
        raise ValueError(f"component index must satisfy 1 <= alpha <= {n}, got {alpha}")
    y = -2.0 * x[alpha - 1] * x
    y[alpha - 1] += float(x @ x)
    return y


@dataclass(frozen=True)
class KillingFieldId:
    """Identifier for the conformal Killing field entering a curvature functional."""

    kind: str  # "X" or "Y"
    alpha: int | None = None

    def __post_init__(self):
        if self.kind not in ("X", "Y"):
            raise ValueError(f"kind must be 'X' or 'Y', got {self.kind!r}")
        if self.kind == "Y" and (self.alpha is None or self.alpha < 1):
            raise ValueError("Y fields need a component index alpha >= 1")

    def evaluate(self, x) -> Array:
        if self.kind == "X":
            return field_X(x)
        return field_Y(self.alpha, x)


@dataclass(frozen=True)
class MassPair:
    """Flux mass and curvature mass evaluated on the same surface."""

    r: float
    adm: float
    intrinsic: float

    @property
    def difference(self) -> float:
        return self.adm - self.intrinsic


@dataclass(frozen=True)
class CenterPair:
    """Both center functionals on one surface, sharing the mass normalization."""

    r: float
    cs: Array
    intrinsic: Array
    mass_used: float

    def __post_init__(self):
        if abs(self.mass_used) < MASS_THRESHOLD:
            raise UndefinedCenterError(
                f"center of mass undefined for |mass| = {abs(self.mass_used):.3e} < {MASS_THRESHOLD}"
            )

    @property
    def difference(self) -> Array:
        return self.cs - self.intrinsic


def _fsum(contrib: Array) -> float:
    return math.fsum(contrib.tolist())


def _surface_jets(field: MetricField, surf: QuadSurface):
    if surf.dim != field.dim:
        raise ValueError(f"surface dimension {surf.dim} != field dimension {field.dim}")
    check_surface_in_domain(field.inner_radius, surf)
    return jet2_batch(field, surf.points)


def _flux_bracket(dg: Array) -> Array:
    # b[p, i] = sum_k (d_k g_ki - d_i g_kk)
    return np.einsum("pkki->pi", dg) - np.einsum("pikk->pi", dg)


def adm_mass_at(field: MetricField, surf: QuadSurface) -> float:
    """Flux mass: the divergence-type surface integral of first metric derivatives.

    Evaluates ``(d_j g_ij - d_i g_jj) nu_e^i`` against the Euclidean area
    weights, normalized by ``2 (n-1) omega_(n-1)``.
    """
    n = field.dim
    _, dg, _ = _surface_jets(field, surf)
    contrib = np.einsum("pi,pi->p", _flux_bracket(dg), surf.normals) * surf.weights
    return _fsum(contrib) / (2.0 * (n - 1) * unit_sphere_area(n))


def intrinsic_mass_at(field: MetricField, surf: QuadSurface) -> float:
    """Curvature mass: the Einstein tensor paired with the dilation field.

    Evaluates ``(Ric - R/2 g)(X, nu_g)`` with the metric normal and area
    weights, normalized by ``(n-1)(2-n) omega_(n-1)``; the ``2 - n`` factor is
    negative and makes the result positive for positive-mass metrics.
    """
    n = field.dim
    g, dg, ddg = _surface_jets(field, surf)
    bundle = curvature_arrays(g, dg, ddg)
    nu_g, w_g = g_normals_and_areas(g, surf.normals, surf.weights, ginv=bundle.ginv)
    contrib = np.einsum("pij,pi,pj->p", bundle.einstein, surf.points, nu_g) * w_g
    return _fsum(contrib) / ((n - 1) * (2.0 - n) * unit_sphere_area(n))


def mass_pair(field: MetricField, surf: QuadSurface) -> MassPair:
    """Both mass functionals on one surface."""
    return MassPair(
        r=surf.nominal_radius,
        adm=adm_mass_at(field, surf),
        intrinsic=intrinsic_mass_at(field, surf),
    )


def _require_mass(mass: float) -> float:
    if abs(mass) < MASS_THRESHOLD:
        raise UndefinedCenterError(
            f"center of mass undefined for |mass| = {abs(mass):.3e} < {MASS_THRESHOLD}"
        )
    return float(mass)


def cs_center_at(field: MetricField, surf: QuadSurface, mass: float) -> Array:
    """Flux center of mass (Hamiltonian form), one component per coordinate.

    Component alpha integrates
    ``x^alpha (d_i g_ij - d_j g_ii) nu_e^j - (h_(i alpha) nu_e^i - h_ii nu_e^alpha)``
    over the surface, normalized by ``2 (n-1) omega_(n-1) * mass``.  Using the
    deviation ``h = g - identity`` in the second group drops a pure-trace term
    whose surface integral vanishes only by closed-surface symmetry, which
    reduces quadrature error.
    """
    n = field.dim
    mass = _require_mass(mass)
    g, dg, _ = _surface_jets(field, surf)
    h = g - np.eye(n)
    flux = np.einsum("pj,pj->p", _flux_bracket(dg), surf.normals)
    t1 = surf.points * flux[:, None]
    t2 = np.einsum("pia,pi->pa", h, surf.normals) - np.einsum("pii->p", h)[:, None] * surf.normals
    contrib = (t1 - t2) * surf.weights[:, None]
    total = np.array([_fsum(contrib[:, a]) for a in range(n)])
    return total / (2.0 * (n - 1) * unit_sphere_area(n) * mass)


def _conformal_generators(points: Array) -> Array:
    # Y[p, alpha, i] = |x|^2 delta_(alpha i) - 2 x_alpha x_i
    n = points.shape[1]
    r2 = np.einsum("pi,pi->p", points, points)
    return r2[:, None, None] * np.eye(n) - 2.0 * points[:, :, None] * points[:, None, :]


def intrinsic_center_at(field: MetricField, surf: QuadSurface, mass: float) -> Array:
    """Curvature center of mass: Einstein tensor against the conformal generators.

    Component alpha integrates ``(Ric - R/2 g)(Y_alpha, nu_g)`` with metric
    normal and area weights, normalized by ``2 (n-1)(n-2) omega_(n-1) * mass``.
    """
    n = field.dim
    mass = _require_mass(mass)
    g, dg, ddg = _surface_jets(field, surf)
    bundle = curvature_arrays(g, dg, ddg)
    nu_g, w_g = g_normals_and_areas(g, surf.normals, surf.weights, ginv=bundle.ginv)
    Y = _conformal_generators(surf.points)
    contrib = np.einsum("pij,pai,pj->pa", bundle.einstein, Y, nu_g) * w_g[:, None]
    total = np.array([_fsum(contrib[:, a]) for a in range(n)])
    return total / (2.0 * (n - 1) * (n - 2) * unit_sphere_area(n) * mass)


def center_pair(field: MetricField, surf: QuadSurface, mass: float) -> CenterPair:
    """Both center functionals on one surface."""
    return CenterPair(
        r=surf.nominal_radius,
        cs=cs_center_at(field, surf, mass),
        intrinsic=intrinsic_center_at(field, surf, mass),
        mass_used=float(mass),
    )


def _require_enclosable(field: MetricField, surf: QuadSurface, inner: QuadSurface | None) -> None:
    if inner is None:
        if not field.metadata.get("globally_smooth", False):
            raise DomainError(
                f"field {field.label!r} is not smooth on the enclosed region; "
                "pass an inner surface to use the annulus form"
            )
        return
    inner_max = float(np.max(np.linalg.norm(inner.points, axis=1)))
    outer_min = float(np.min(np.linalg.norm(surf.points, axis=1)))
    if inner_max >= outer_min:
        raise ValueError(
            f"inner surface (max radius {inner_max:.6g}) must lie strictly inside "
            f"the outer one (min radius {outer_min:.6g})"
        )
    check_surface_in_domain(field.inner_radius, inner)


def _second_derivative_form(ddg: Array) -> tuple[Array, Array]:
    # M[p,i,j] = sum_k (-dd_(kj) g_ki - dd_(ki) g_kj + dd_(kk) g_ij + dd_(ij) g_kk)
    M = (
        -np.einsum("pkjki->pij", ddg)
        - np.einsum("pkikj->pij", ddg)
        + np.einsum("pkkij->pij", ddg)
        + np.einsum("pijkk->pij", ddg)
    )
    # s[p] = sum_(k,j) (-dd_(kj) g_kj + dd_(jj) g_kk)
    s = -np.einsum("pkjkj->p", ddg) + np.einsum("pjjkk->p", ddg)
    return M, s


def _ibp_form_X(field: MetricField, surf: QuadSurface) -> float:
    _, dg, ddg = _surface_jets(field, surf)
    n = field.dim
    M, s = _second_derivative_form(ddg)
    lhs = _fsum(np.einsum("pij,pi,pj->p", M, surf.points, surf.normals) * surf.weights)
    flux = _fsum(np.einsum("pj,pj->p", _flux_bracket(dg), surf.normals) * surf.weights)
    radial = _fsum(s * np.einsum("pi,pi->p", surf.points, surf.normals) * surf.weights)
    return lhs - (n - 2) * flux - radial


def ibp_residual_X(field: MetricField, surf: QuadSurface, inner: QuadSurface | None = None) -> float:
    """Defect of the exact integration-by-parts identity for the dilation field.

    The surface integral of the second-derivative combination
    ``(-dd_(kj) g_ki - dd_(ki) g_kj + dd_(kk) g_ij + dd_(ij) g_kk) x^i nu_e^j``
    equals ``(n-2)`` times the flux-mass integrand plus the radial moment of
    ``(-dd_(kj) g_kj + dd_(jj) g_kk)``, for any metric that is C^3 on the
    enclosed region.  Returns left side minus right side; only quadrature
    error remains for smooth fields.

    When ``inner`` is given the identity is applied on the annulus between the
    two surfaces instead, which makes fields with an excluded ball testable.
    """
    _require_enclosable(field, surf, inner)
    res = _ibp_form_X(field, surf)
    if inner is not None:
        res -= _ibp_form_X(field, inner)
    return res


def _ibp_form_Y(field: MetricField, surf: QuadSurface, alpha: int) -> float:
    g, dg, ddg = _surface_jets(field, surf)
    n = field.dim
    M, s = _second_derivative_form(ddg)
    Y = _conformal_generators(surf.points)[:, alpha - 1, :]
    lhs = _fsum(np.einsum("pij,pi,pj->p", -M, Y, surf.normals) * surf.weights)
    rhs1 = _fsum(-s * np.einsum("pi,pi->p", Y, surf.normals) * surf.weights)
    h = g - np.eye(n)
    flux = np.einsum("pi,pi->p", _flux_bracket(dg), surf.normals)
    trace_part = (
        np.einsum("pk,pk->p", h[:, :, alpha - 1], surf.normals)
        - np.einsum("pkk->p", h) * surf.normals[:, alpha - 1]
    )
    rhs2 = 2.0 * (n - 2) * _fsum((surf.points[:, alpha - 1] * flux - trace_part) * surf.weights)
    return lhs - rhs1 - rhs2


def ibp_residual_Y(
    field: MetricField, surf: QuadSurface, alpha: int, inner: QuadSurface | None = None
) -> float:
    """Defect of the integration-by-parts identity for the conformal generator.

    Same structure as :func:`ibp_residual_X` with ``Y_alpha`` in place of the
    dilation field; the boundary terms are the center-of-mass flux integrand.
    ``alpha`` is 1-based.
    """
    if not 1 <= alpha <= field.dim:
        raise ValueError(f"component index must satisfy 1 <= alpha <= {field.dim}, got {alpha}")
    _require_enclosable(field, surf, inner)
    res = _ibp_form_Y(field, surf, alpha)
    if inner is not None:
        res -= _ibp_form_Y(field, inner, alpha)
    return res


def scalar_curvature_moment(
    field: MetricField,
    r0: float,
    r1: float,
    moment: int = 0,
    order: int = 16,
    radial_nodes: int = 32,
) -> float:
    """Volume integral of ``R`` (or ``x^i R``) over the annulus ``r0 < |x| < r1``.

    Uses Gauss-Legendre in the radius against the unit-sphere rule, with the
    metric volume element ``sqrt(det g)``.  ``moment=0`` integrates the scalar
    curvature itself; ``moment=i`` (1-based) weights it by the coordinate
    ``x^i``.  Shell-by-shell calls expose the convergence of the tail.
    """
    if not (r1 > r0 >= field.inner_radius):
        raise ValueError(
            f"need r1 > r0 >= inner_radius, got r0={r0}, r1={r1}, "
            f"inner_radius={field.inner_radius}"
        )
    n = field.dim
    if not 0 <= moment <= n:
        raise ValueError(f"moment must be 0 or a 1-based index <= {n}, got {moment}")
    dirs, w_dir = unit_sphere_rule(n, order)
    t, wt = gauss_jacobi(radial_nodes, 0.0)
    radii = 0.5 * (r1 - r0) * t + 0.5 * (r1 + r0)
    w_rad = 0.5 * (r1 - r0) * wt
    shells = []
    for r, wr in zip(radii, w_rad):
        pts = r * dirs
        g, dg, ddg = jet2_batch(field, pts)
        bundle = curvature_arrays(g, dg, ddg)
        dens = bundle.scalar * np.sqrt(np.linalg.det(g))
        if moment:
            dens = dens * pts[:, moment - 1]
        shells.append(wr * r ** (n - 1) * _fsum(dens * w_dir))
    return math.fsum(shells)
