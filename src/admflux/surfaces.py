"""Quadrature over coordinate spheres and ellipsoids, plus metric normals and areas.

Sphere rules are product Gauss rules built recursively: Gauss-Jacobi nodes in
the polar cosine against the weight ``(1 - t^2)^((n-3)/2)``, times a rule on
the equatorial sphere one dimension down, bottoming out at a uniform rule on
the circle.  The Gauss-Jacobi rules come from the Golub-Welsch construction in
numpy alone: nodes are the eigenvalues of the symmetric Jacobi matrix of the
weight, polished by one Newton step, and weights are the Christoffel numbers
``1 / sum_k p_k(t)^2`` of the orthonormal recurrence (eigenvector weights lose
about 1e-11 relative accuracy near the ends).  Unit-sphere rules are cached per
``(n, order)`` and handed out read-only.  Ellipsoid rules reuse the unit-sphere
nodes through the linear map ``u -> a * u``, with weights scaled by
``prod(a) * |u / a|``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metric_field import Array

DEFAULT_ORDER = 24

#: Most nodes a unit-sphere rule may have (see :func:`check_rule_size`).
MAX_RULE_NODES = 10**6


def rule_size(n: int, order: int) -> int:
    """The ``2 (order + 1)^(n - 1)`` nodes of the order-``order`` rule on the unit sphere in R^n."""
    return 2 * (order + 1) ** (n - 1)


def check_rule_size(n: int, order: int) -> None:
    """Raise :class:`ConfigError` unless the order-``order`` rule on the unit sphere
    in R^n fits :data:`MAX_RULE_NODES`."""
    if n >= 2 and rule_size(n, order) > MAX_RULE_NODES:
        raise ConfigError(
            f"metric dim {n}: an order-{order} sphere rule has 2*{order + 1}^{n - 1} nodes, "
            f"more than the {MAX_RULE_NODES} a rule may have"
        )


def unit_sphere_area(n: int) -> float:
    """Area of the unit sphere in R^n (``4 pi`` for n=3, ``2 pi^2`` for n=4)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class QuadSurface:
    """Weighted quadrature nodes on a closed surface.

    ``points[p]`` are node coordinates, ``normals[p]`` the Euclidean unit
    outward normals and ``weights[p]`` the Euclidean area weights, so that
    ``sum(weights)`` approximates the surface area.  ``nominal_radius`` is the
    distance from the origin to the closest surface point.
    """

    dim: int
    points: Array
    normals: Array
    weights: Array
    nominal_radius: float

    def __len__(self) -> int:
        return len(self.weights)

    def area(self) -> float:
        return math.fsum(self.weights.tolist())


def _orthonormal_recurrence(t: Array, off: Array, p0: float) -> tuple[Array, Array, Array]:
    """``p_m(t)``, ``p_m'(t)`` and ``sum_{k<m} p_k(t)^2`` for the orthonormal
    polynomials of a symmetric weight with recurrence coefficients ``off``
    (``b_k p_k = t p_{k-1} - b_{k-1} p_{k-2}``, ``m = len(off)``)."""
    p_prev, p = np.zeros_like(t), np.full_like(t, p0)
    dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
    total = np.zeros_like(t)
    b_prev = 0.0
    for b in off:
        total += p * p
        p_prev, p = p, (t * p - b_prev * p_prev) / b
        dp_prev, dp = dp, (p_prev + t * dp - b_prev * dp_prev) / b
        b_prev = b
    return p, dp, total


def gauss_jacobi(m: int, a: float) -> tuple[Array, Array]:
    """The ``m``-point Gauss rule on ``[-1, 1]`` for the weight ``(1 - t^2)^a``.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi matrix
    with off-diagonals ``sqrt(k (k + 2a) / ((2k + 2a + 1)(2k + 2a - 1)))``,
    polished by one Newton step on ``p_m`` and symmetrized; the weights are the
    Christoffel numbers ``1 / sum_{k<m} p_k(t)^2`` with
    ``p_0 = 1 / sqrt(mu0)``, ``mu0 = 2^(2a+1) Gamma(a+1)^2 / Gamma(2a+2)``.
    The rule integrates polynomials of degree ``2m - 1`` exactly.
    """
    if m < 1:
        raise ValueError(f"gauss_jacobi needs at least one node, got {m}")
    k = np.arange(1.0, m + 1)
    off = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
    t = np.linalg.eigvalsh(np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    p0 = 1.0 / math.sqrt(2.0 ** (2 * a + 1) * math.gamma(a + 1) ** 2 / math.gamma(2 * a + 2))
    pm, dpm, _ = _orthonormal_recurrence(t, off, p0)
    t = t - pm / dpm
    t = 0.5 * (t - t[::-1])
    _, _, total = _orthonormal_recurrence(t, off, p0)
    return t, 1.0 / total


#: QUADPACK's ``qk15`` Kronrod extension of the 7-point Gauss-Legendre rule
#: (Kronrod 1965; Piessens et al. 1983): the nonnegative nodes, descending, and
#: their weights.  The Gauss nodes are ``_XGK[1::2]``.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)


@functools.lru_cache(maxsize=1)
def gauss_kronrod15() -> tuple[Array, Array, Array]:
    """The 15-point Kronrod rule on ``[-1, 1]`` with its embedded 7-point Gauss rule.

    Returns the ascending nodes ``t``, their Kronrod weights, and the Gauss
    weights of the nodes ``t[1::2]`` (from :func:`gauss_jacobi`, whose nodes
    they are).  The Kronrod rule integrates polynomials of degree 23 exactly,
    the Gauss rule those of degree 13, so the difference of the two estimates
    the Gauss rule's error at no extra evaluations.  The arrays are read-only.
    """
    xgk, wgk = np.array(_XGK), np.array(_WGK)
    t = np.concatenate([-xgk[:-1], xgk[::-1]])
    w_kronrod = np.concatenate([wgk[:-1], wgk[::-1]])
    return _read_only(t, w_kronrod, gauss_jacobi(7, 0.0)[1])


@functools.lru_cache(maxsize=16)
def unit_sphere_rule(n: int, order: int) -> tuple[Array, Array]:
    """Nodes and weights on the unit sphere in R^n, exact for spherical
    polynomials of degree well above ``order``.

    Rules are cached per ``(n, order)``; the returned arrays are shared and
    read-only.
    """
    if n == 2:
        m = 2 * (order + 1)
        ang = 2.0 * math.pi * np.arange(m) / m
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return _read_only(pts, np.full(m, 2.0 * math.pi / m))
    a = (n - 3) / 2.0
    t, wt = gauss_jacobi(order + 1, a)
    sub_pts, sub_w = unit_sphere_rule(n - 1, order)
    s = np.sqrt(1.0 - t**2)
    pts = np.concatenate(
        [
            s[:, None, None] * sub_pts[None, :, :],
            np.broadcast_to(t[:, None, None], (len(t), len(sub_pts), 1)).copy(),
        ],
        axis=2,
    )
    w = wt[:, None] * sub_w[None, :]
    return _read_only(pts.reshape(-1, n), w.reshape(-1))


def _read_only(*arrays: Array) -> tuple[Array, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def sphere_quadrature(n: int, r: float, order: int = DEFAULT_ORDER) -> QuadSurface:
    """Quadrature on the coordinate sphere of radius ``r`` in R^n.

    Outward normals are ``x / r`` and weights sum to the sphere area
    ``unit_sphere_area(n) * r^(n-1)``.
    """
    if n < 3:
        raise ValueError(f"sphere_quadrature requires dimension >= 3, got {n}")
    if r <= 0:
        raise ValueError(f"sphere radius must be positive, got {r}")
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    pts, w = unit_sphere_rule(n, order)
    return QuadSurface(
        dim=n,
        points=r * pts,
        normals=pts,
        weights=w * r ** (n - 1),
        nominal_radius=float(r),
    )


def ellipsoid_quadrature(semi_axes, order: int = DEFAULT_ORDER) -> QuadSurface:
    """Quadrature on the ellipsoid ``sum (x_i / a_i)^2 = 1``.

    Nodes are the unit-sphere nodes mapped by ``u -> a * u``; the area weight
    picks up the factor ``prod(a) * |u / a|`` (the cofactor stretch of the
    linear map), and normals are the exact outward ellipsoid normals,
    proportional to ``x_i / a_i^2``.
    """
    a = np.asarray(semi_axes, dtype=float)
    n = a.size
    if n < 3:
        raise ValueError(f"ellipsoid_quadrature requires dimension >= 3, got {n}")
    if np.any(a <= 0):
        raise ValueError(f"semi-axes must be positive, got {a.tolist()}")
    u, wu = unit_sphere_rule(n, order)
    covec = u / a
    stretch = np.linalg.norm(covec, axis=1)
    return QuadSurface(
        dim=n,
        points=u * a,
        normals=covec / stretch[:, None],
        weights=wu * float(np.prod(a)) * stretch,
        nominal_radius=float(np.min(a)),
    )


def g_normals_and_areas(nu_e: Array, w_e: Array, ginv: Array, det: Array) -> tuple[Array, Array]:
    """Batched metric normals and area weights from Euclidean ones, with the point axis last.

    Given the Euclidean unit conormal ``nu_e[i, p]`` of a surface, the inverse
    metric ``ginv[i, j, p]`` and ``det = det g``, the inverse and the product
    of the pivots of :func:`~admflux.curvature.metric_inverse`, the unit
    outward normal vector with respect to ``g`` is ``ginv nu_e / sqrt(nu_e
    ginv nu_e)`` and the induced area element is ``w_g = w_e * sqrt(det g) *
    sqrt(nu_e ginv nu_e)``.  Returns ``nu_g[i, p]`` and ``w_g[p]``.
    """
    q = np.sqrt(np.einsum("kl...,k...,l...->...", ginv, nu_e, nu_e))
    return np.einsum("ij...,j...->i...", ginv, nu_e) / q, w_e * np.sqrt(det) * q
