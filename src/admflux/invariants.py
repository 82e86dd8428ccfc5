"""Mass and center-of-mass functionals and the exact integral identities behind them.

Two routes to the same invariants are kept deliberately separate:

* flux form -- first derivatives of the metric against the *Euclidean* normal
  and area element (``adm_mass``, ``cs_center``);
* curvature form -- the Einstein tensor contracted with a conformal Killing
  field against the *metric* normal and area element
  (``intrinsic_mass``, ``intrinsic_center``).

Their agreement in the large-radius limit is what the analysis layer
certifies, so no silent substitution of normals or measures is made anywhere.
:class:`SurfaceEval` is the one way to evaluate a functional: its jets are
evaluated once per surface for all four, each route with its own normals and
measure, and :meth:`SurfaceEval.value` reads any of them.
The integration-by-parts identities (:func:`identity_residuals`) take their
boundary terms from the same flux totals.  Every jet comes through
:func:`~admflux.metric_field.jet2_batch`, which checks that the points lie in
the field's domain and that the jets are finite.  All reductions use
``math.fsum`` in node order for run-to-run determinism.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curvature import curvature_arrays
from .errors import DomainError, NonFiniteError, UndefinedCenterError
from .metric_field import Array, MetricField, jet2_batch
from .surfaces import (
    QuadSurface,
    g_normals_and_areas,
    gauss_kronrod15,
    unit_sphere_area,
    unit_sphere_rule,
)

#: Center functionals are undefined for |mass| below this threshold.
MASS_THRESHOLD = 1e-8
#: Most points any call of the curvature kernel takes: the node count of the
#: order-48 sphere in R^3, the largest surface the default sweeps evaluate, so
#: larger surfaces and the volume shells add no memory peak.
MAX_KERNEL_POINTS = 4802
#: Relative disagreement that still counts as converged: between consecutive
#: quadrature orders of a swept surface, and between the Kronrod and Gauss
#: estimates of a radial piece of a scalar-curvature annulus.
REFINEMENT_TOL = 1e-8
#: Bisections of a radial piece before its annulus counts as unconverged.
MAX_RADIAL_BISECTIONS = 6


#: The functionals read from the curvature bundle; the others need only the jets.
CURVATURE_FUNCTIONALS = ("intrinsic_mass", "intrinsic_center")
#: The functionals normalized by a mass as well.
CENTER_FUNCTIONALS = ("cs_center", "intrinsic_center")


def _fsum(contrib: Array) -> float:
    """``math.fsum`` of ``contrib``; an overflowed integrand raises :class:`NonFiniteError`."""
    try:
        return math.fsum(contrib.tolist())
    except (OverflowError, ValueError) as exc:
        raise NonFiniteError(f"surface integrand overflows: {exc}") from None


def _kernel_slices(total: int, block: int = 1) -> list[slice]:
    """Slices of ``total`` points for one curvature-kernel call each.

    Each slice holds as many whole ``block``s of points as fit in
    :data:`MAX_KERNEL_POINTS`, or the cap itself when one block is larger.
    """
    step = MAX_KERNEL_POINTS // block * block or MAX_KERNEL_POINTS
    return [slice(k, k + step) for k in range(0, total, step)]


def _flux_bracket(dg: Array) -> Array:
    # b[p, i] = sum_k (d_k g_ki - d_i g_kk)
    return np.einsum("pkki->pi", dg) - np.einsum("pikk->pi", dg)


def _conformal_generators(points: Array) -> Array:
    # Y[p, alpha, i] = |x|^2 delta_(alpha i) - 2 x_alpha x_i
    n = points.shape[1]
    r2 = np.einsum("pi,pi->p", points, points)
    return r2[:, None, None] * np.eye(n) - 2.0 * points[:, :, None] * points[:, None, :]


class SurfaceEval:
    """One surface's metric jets, shared by every functional evaluated on it.

    :meth:`total` gives a functional's ``fsum`` total before normalization.
    The flux totals use the jets with the Euclidean normals and weights.  The
    first curvature total makes the curvature bundle and the metric normals
    and weights, once; flux totals never make them.
    """

    def __init__(self, field: MetricField, surf: QuadSurface):
        if surf.dim != field.dim:
            raise ValueError(f"surface dimension {surf.dim} != field dimension {field.dim}")
        self.field = field
        self.surf = surf
        self.g, self.dg, self.ddg = jet2_batch(field, surf.points)
        self._curvature: tuple[Array, Array, Array] | None = None

    def _einstein_frame(self) -> tuple[Array, Array, Array]:
        """The Einstein tensor with the metric normals and area weights.

        The kernel takes the nodes in slices of at most :data:`MAX_KERNEL_POINTS`.
        """
        if self._curvature is None:
            einstein, ginv = [], []
            for part in _kernel_slices(len(self.surf)):
                bundle = curvature_arrays(self.g[part], self.dg[part], self.ddg[part])
                einstein.append(bundle.einstein)
                ginv.append(bundle.ginv)
            nu_g, w_g = g_normals_and_areas(
                self.g, self.surf.normals, self.surf.weights, np.concatenate(ginv)
            )
            self._curvature = (np.concatenate(einstein), nu_g, w_g)
        return self._curvature

    def total(self, name: str) -> float | Array:
        """The unnormalized total of functional ``name``: a float, or one per component.

        * ``adm_mass``, the flux mass: ``(d_j g_ij - d_i g_jj) nu_e^i`` against
          the Euclidean weights, over ``2 (n-1) omega_(n-1)``.
        * ``cs_center``, the flux center (Hamiltonian form): component alpha
          integrates ``x^alpha (d_i g_ij - d_j g_ii) nu_e^j - (h_(i alpha) nu_e^i
          - h_ii nu_e^alpha)`` against the Euclidean weights, over
          ``2 (n-1) omega_(n-1) * mass``.  The deviation ``h = g - identity``
          drops a pure-trace term whose integral vanishes only by closed-surface
          symmetry, which reduces quadrature error.
        * ``intrinsic_mass``, the curvature mass: ``(Ric - R/2 g)(X, nu_g)`` with
          the metric normal and weights, over ``(n-1)(2-n) omega_(n-1)``; the
          negative ``2 - n`` makes it positive for positive-mass metrics.
        * ``intrinsic_center``, the curvature center: component alpha integrates
          ``(Ric - R/2 g)(Y_alpha, nu_g)`` with the metric normal and weights,
          over ``2 (n-1)(n-2) omega_(n-1) * mass``.

        :func:`normalized` divides by these normalizations.
        """
        surf, n = self.surf, self.field.dim
        if name == "adm_mass":
            contrib = np.einsum("pi,pi->p", _flux_bracket(self.dg), surf.normals) * surf.weights
            return _fsum(contrib)
        if name == "cs_center":
            h = self.g - np.eye(n)
            flux = np.einsum("pj,pj->p", _flux_bracket(self.dg), surf.normals)
            t1 = surf.points * flux[:, None]
            t2 = np.einsum("pia,pi->pa", h, surf.normals) - np.einsum("pii->p", h)[:, None] * surf.normals
            contrib = (t1 - t2) * surf.weights[:, None]
            return np.array([_fsum(contrib[:, a]) for a in range(n)])
        if name not in CURVATURE_FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}")
        einstein, nu_g, w_g = self._einstein_frame()
        if name == "intrinsic_mass":
            contrib = np.einsum("pij,pi,pj->p", einstein, surf.points, nu_g) * w_g
            return _fsum(contrib)
        Y = _conformal_generators(surf.points)
        contrib = np.einsum("pij,pai,pj->pa", einstein, Y, nu_g) * w_g[:, None]
        return np.array([_fsum(contrib[:, a]) for a in range(n)])

    def value(self, name: str, mass: float | None = None) -> float | Array:
        """Functional ``name`` on the surface; center functionals need ``mass``,
        with ``|mass| >= MASS_THRESHOLD``."""
        return normalized(name, self.total(name), self.field.dim, mass)


def normalized(name: str, total, n: int, mass: float | None = None) -> float | Array:
    """Functional ``name`` in R^n from its surface total.

    Divides by the functional's normalization and, for a center functional,
    by ``mass`` as well, which must satisfy ``|mass| >= MASS_THRESHOLD``.
    """
    if name in ("adm_mass", "cs_center"):
        scale = 2.0 * (n - 1) * unit_sphere_area(n)
    elif name == "intrinsic_mass":
        scale = (n - 1) * (2.0 - n) * unit_sphere_area(n)
    elif name == "intrinsic_center":
        scale = 2.0 * (n - 1) * (n - 2) * unit_sphere_area(n)
    else:
        raise ValueError(f"unknown functional {name!r}")
    if name not in CENTER_FUNCTIONALS:
        return total / scale
    if mass is None:
        raise ValueError(f"functional {name!r} needs the mass normalization")
    if abs(mass) < MASS_THRESHOLD:
        raise UndefinedCenterError(
            f"center of mass undefined for |mass| = {abs(mass):.3e} < {MASS_THRESHOLD}"
        )
    return total / (scale * float(mass))


def _require_enclosable(field: MetricField, surf: QuadSurface, inner: QuadSurface | None) -> None:
    if inner is None:
        if field.inner_radius != 0:
            raise DomainError(
                f"field {field.label!r} is not defined on the whole enclosed region "
                f"(inner radius {field.inner_radius:g}); pass an inner surface to use the annulus form"
            )
        return
    inner_max = float(np.max(np.linalg.norm(inner.points, axis=1)))
    outer_min = float(np.min(np.linalg.norm(surf.points, axis=1)))
    if inner_max >= outer_min:
        raise ValueError(
            f"inner surface (max radius {inner_max:.6g}) must lie strictly inside "
            f"the outer one (min radius {outer_min:.6g})"
        )


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


def _ibp_forms(field: MetricField, surf: QuadSurface) -> tuple[float, Array]:
    """Left minus right side of the dilation identity and of the ``n`` generator
    identities on one surface, from one jet evaluation.

    The boundary terms are the flux integrands: ``(n-2)`` times the flux-mass
    total and ``2(n-2)`` times each flux-center total of the surface.
    """
    evaluation = SurfaceEval(field, surf)
    n = field.dim
    M, s = _second_derivative_form(evaluation.ddg)
    lhs = _fsum(np.einsum("pij,pi,pj->p", M, surf.points, surf.normals) * surf.weights)
    radial = _fsum(s * np.einsum("pi,pi->p", surf.points, surf.normals) * surf.weights)
    form_x = lhs - (n - 2) * evaluation.total("adm_mass") - radial

    centers = evaluation.total("cs_center")
    generators = _conformal_generators(surf.points)
    forms_y = []
    for a in range(n):
        Y = generators[:, a, :]
        lhs = _fsum(np.einsum("pij,pi,pj->p", -M, Y, surf.normals) * surf.weights)
        rhs1 = _fsum(-s * np.einsum("pi,pi->p", Y, surf.normals) * surf.weights)
        forms_y.append(lhs - rhs1 - 2.0 * (n - 2) * centers[a])
    return form_x, np.array(forms_y)


def identity_residuals(
    field: MetricField, surf: QuadSurface, inner: QuadSurface | None = None
) -> tuple[float, Array]:
    """Defects of the exact integration-by-parts identities on ``surf``.

    For the dilation field ``X = x``: the surface integral of the
    second-derivative combination
    ``(-dd_(kj) g_ki - dd_(ki) g_kj + dd_(kk) g_ij + dd_(ij) g_kk) x^i nu_e^j``
    equals ``(n-2)`` times the flux-mass integrand plus the radial moment of
    ``(-dd_(kj) g_kj + dd_(jj) g_kk)``, for any metric that is C^3 on the
    enclosed region.  The identity for each conformal generator ``Y_alpha``
    has the same structure, with the center-of-mass flux integrand as its
    boundary term.  Returns left side minus right side for ``X`` and, as an
    array, for ``Y_alpha`` with ``alpha = 1..n``, from one jet evaluation per
    surface; only quadrature error remains for smooth fields.

    When ``inner`` is given the identities are applied on the annulus between
    the two surfaces instead, which makes fields with an excluded ball
    testable.
    """
    _require_enclosable(field, surf, inner)
    res_x, res_y = _ibp_forms(field, surf)
    if inner is not None:
        inner_x, inner_y = _ibp_forms(field, inner)
        res_x, res_y = res_x - inner_x, res_y - inner_y
    return res_x, res_y


class ShellIntegral(NamedTuple):
    """An annulus integral of the scalar curvature, summed over its radial pieces.

    ``error`` sums the pieces' Kronrod-minus-Gauss estimates and ``scale``
    the same integral of ``max |R_ij|``, the size the rounding of ``R`` is
    relative to.  ``converged`` is false when a piece still missed
    ``REFINEMENT_TOL * scale`` after :data:`MAX_RADIAL_BISECTIONS` bisections.
    """

    value: float
    error: float
    scale: float
    converged: bool


def _scalar_densities(field: MetricField, points: Array) -> tuple[Array, Array]:
    """``R sqrt(det g)`` and ``max |R_ij| sqrt(det g)`` at ``points``, from one
    jet evaluation and one kernel call."""
    g, dg, ddg = jet2_batch(field, points)
    bundle = curvature_arrays(g, dg, ddg)
    volume = np.sqrt(np.linalg.det(g))
    return bundle.scalar * volume, np.abs(bundle.ricci).max(axis=(1, 2)) * volume


def scalar_curvature_moment(
    field: MetricField, r0: float, r1: float, moment: int = 0, order: int = 16
) -> ShellIntegral:
    """Volume integral of ``R`` (or ``x^i R``) over the annulus ``r0 < |x| < r1``.

    Uses the unit-sphere rule in the directions and the embedded 7/15-point
    Gauss-Kronrod pair in the radius, with the metric volume element
    ``sqrt(det g)``.  ``moment=0`` integrates the scalar curvature itself;
    ``moment=i`` (1-based) weights it by the coordinate ``x^i``.  Shell-by-shell
    calls expose the convergence of the tail.

    The radial interval starts as one piece.  A piece is accepted when its
    Kronrod and Gauss estimates agree to :data:`REFINEMENT_TOL` times its
    scale, the Kronrod integral of ``max |R_ij| sqrt(det g)`` (times ``|x^i|``
    for a moment); otherwise it is bisected, up to
    :data:`MAX_RADIAL_BISECTIONS` times.  The 15 shells of every open piece go
    through the curvature kernel together, in batches of whole shells of at
    most :data:`MAX_KERNEL_POINTS` nodes; each shell is reduced in node order
    and the pieces are summed in radial order.  Returns a
    :class:`ShellIntegral`: the value, the summed error estimate, the scale
    and whether every piece was accepted.
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
    t, w_kronrod, w_gauss = gauss_kronrod15()
    pieces, accepted, converged = [(r0, r1)], [], True
    for depth in range(MAX_RADIAL_BISECTIONS + 1):
        ends = np.array(pieces)
        mid, half = ends.mean(axis=1), 0.5 * (ends[:, 1] - ends[:, 0])
        radii = (mid[:, None] + half[:, None] * t).reshape(-1)
        pts = (radii[:, None, None] * dirs).reshape(-1, n)
        parts = [_scalar_densities(field, pts[part]) for part in _kernel_slices(len(pts), len(dirs))]
        dens, size = (np.concatenate(column) for column in zip(*parts))
        if moment:
            dens, size = dens * pts[:, moment - 1], size * np.abs(pts[:, moment - 1])
        area = radii ** (n - 1)
        shells, sizes = (
            (area * [_fsum(d * w_dir) for d in f.reshape(len(radii), -1)]).reshape(len(pieces), -1)
            for f in (dens, size)
        )
        still_open = []
        for (a, b), c, h, shell, shell_size in zip(pieces, mid, half, shells, sizes):
            kronrod = h * _fsum(w_kronrod * shell)
            error = abs(kronrod - h * _fsum(w_gauss * shell[1::2]))
            scale = h * _fsum(w_kronrod * shell_size)
            settled = bool(error <= REFINEMENT_TOL * scale)
            if settled or depth == MAX_RADIAL_BISECTIONS:
                accepted.append((a, kronrod, error, scale))
                converged = converged and settled
            else:
                still_open += [(a, c), (c, b)]
        pieces = still_open
        if not pieces:
            break
    accepted.sort()
    _, values, errors, scales = zip(*accepted)
    return ShellIntegral(math.fsum(values), math.fsum(errors), math.fsum(scales), converged)
