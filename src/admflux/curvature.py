"""Batched tensor calculus: Christoffel symbols, Ricci, scalar and Einstein tensors.

Every function takes a leading point axis, so that surface and volume
integrals evaluate curvature at many quadrature nodes per call; there is no
single-point variant.  All formulas are the full nonlinear ones.

With jets laid out as ``dg[l,i,j] = d_l g_ij`` and ``ddg[l,k,i,j] = d_l d_k g_ij``
and ``P[l]^a_b = g^as d_l g_sb``, the kernel :func:`curvature_arrays`
contracts the derivatives of the connection that the Ricci tensor needs as it
forms them:

* ``gamma^k_ij = (P[j]^k_i + P[i]^k_j - g^ks d_s g_ij) / 2``, so ``gamma^k_kl = P[l]^a_a / 2``;
* ``d_k gamma^k_ij = -P[a]^a_k gamma^k_ij + g^ks (d_k d_j g_is + d_k d_i g_js - d_k d_s g_ij) / 2``;
* ``d_j gamma^k_ki = g^ks d_j d_i g_ks / 2 - tr(P[j] P[i]) / 2``;
* ``R_ij = d_k gamma^k_ij - d_j gamma^k_ki + gamma^k_kl gamma^l_ij - gamma^k_jl gamma^l_ki``.

Inside the kernel the point axis is the last one: each contraction is a
plain ``einsum`` over a trailing ``...``, a sum of products of per-point
vectors.  Jets stored point-last, as the catalog's are, are read in place
through transposed views, slices of them included, and so is the inverse
metric, which :func:`metric_inverse` stores point-last; point-first storage
costs a copy of ``dg`` and strided reads of ``ddg``.  The bundle's arrays
are point-first views of point-last storage.  The full partials
``d_l gamma^k_ij`` are formed only on request (:attr:`CurvatureBundle.dgamma`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMetricError
from .metric_field import Array

#: Metrics with condition number above this are rejected instead of inverted.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data at a batch of points, each array with a leading point axis.

    ``gamma[p, k, i, j]`` holds the connection coefficients with upper index
    first.  ``einstein`` is ``ricci - scalar/2 * g`` and ``ginv`` the inverse
    metric.  ``dg`` and ``ddg`` are the metric partials the bundle was built
    from; the connection partials ``dgamma[p, l, k, i, j]`` (derivative index
    first) are computed from them each time the property is read.  ``det`` is
    ``det g``, the product of the inverse's pivots.
    """

    gamma: Array
    ricci: Array
    scalar: Array
    einstein: Array
    ginv: Array
    det: Array
    dg: Array = field(repr=False)
    ddg: Array = field(repr=False)

    @property
    def dgamma(self) -> Array:
        """``d_l gamma^k_ij = (d_l g^ks T_sij + g^ks d_l T_sij) / 2``
        with ``T_sij = d_j g_is + d_i g_js - d_s g_ij``."""
        ginv, dg, ddg = self.ginv, self.dg, self.ddg
        dginv = -np.einsum("...ab,...lbc,...cd->...lad", ginv, dg, ginv)
        T = np.einsum("...jis->...sij", dg) + np.einsum("...ijs->...sij", dg) - dg
        dT = np.einsum("...ljis->...lsij", ddg) + np.einsum("...lijs->...lsij", ddg) - ddg
        return 0.5 * (
            np.einsum("...lks,...sij->...lkij", dginv, T)
            + np.einsum("...ks,...lsij->...lkij", ginv, dT)
        )


def metric_inverse(g: Array) -> tuple[Array, Array]:
    """Inverse and determinant of a batch ``g[p, i, j]`` of positive definite
    metrics, with finiteness, definiteness and condition-number guards.

    Gauss-Jordan elimination in place and without pivoting, one row operation
    at a time over every point, each row product into one reused work row:
    stable for symmetric positive definite matrices, and a non-positive pivot
    means ``g`` is not one.  The 2-norm condition number is bounded by
    ``|g|_F |g^-1|_F``; only where that bound exceeds :data:`CONDITION_LIMIT`
    are the eigenvalues taken for the exact one.  The pivots are the diagonal
    of the LU factors of ``g``, so their product is ``det g``.  The inverse is
    a point-first view of an array ``ginv[i, j, p]`` whose point axis is last.
    """
    if not np.isfinite(g).all():
        raise SingularMetricError("metric has non-finite entries")
    n = g.shape[-1]
    a = g.transpose(1, 2, 0).copy()  # a[i, j] is a vector over the points
    with np.errstate(all="ignore"):
        frobenius = np.einsum("ij...,ij...->...", a, a)
        det, factor, row = np.ones(len(g)), np.empty(len(g)), np.empty(a.shape[1:])
        for k in range(n):
            pivot = a[k, k].copy()
            if not (pivot > 0).all():
                raise SingularMetricError("metric is not positive definite")
            det *= pivot
            a[k, k] = 1.0
            a[k] /= pivot
            for i in range(n):
                if i != k:
                    factor[:] = a[i, k]
                    a[i, k] = 0.0
                    a[i] -= np.multiply(factor, a[k], out=row)
        suspect = ~(np.sqrt(frobenius * np.einsum("ij...,ij...->...", a, a)) <= CONDITION_LIMIT)
    if suspect.any():
        # for symmetric g the 2-norm condition number is max|lambda| / min|lambda|
        lam = np.abs(np.linalg.eigvalsh(g[suspect]))
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.max(lam.max(axis=-1) / lam.min(axis=-1)))
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            raise SingularMetricError(
                f"metric condition number {worst:.3e} exceeds limit {CONDITION_LIMIT:.0e}"
            )
    return a.transpose(2, 0, 1), det


def curvature_arrays(g: Array, dg: Array, ddg: Array) -> CurvatureBundle:
    """Full curvature bundle from batched jets ``g[p,i,j]``, ``dg[p,l,i,j]``, ``ddg[p,l,k,i,j]``.

    The formulas are the module's; ``R_ij`` is symmetrized against rounding,
    ``R = g^ij R_ij`` and ``G_ij = R_ij - R g_ij / 2``.  The divergence and the
    trace derivative are contracted as they are formed, so the 5-index
    ``dgamma`` array is never built here.
    """
    ginv, det = metric_inverse(g)
    p, n = g.shape[:2]
    # the point axis last: gi[k, s, p], dG[l, i, j, p] and ddG[l, k, i, j, p], views of
    # the inverse's storage and of point-last jet storage, slices of it included
    gi, dG, ddG = ginv.transpose(1, 2, 0), dg.transpose(1, 2, 3, 0), ddg.transpose(1, 2, 3, 4, 0)
    if dG.strides[-1] != dG.itemsize:  # point-first storage: dG is copied point-last
        dG = np.ascontiguousarray(dG)
    P = np.einsum("as...,lsb...->lab...", gi, dG)
    gamma = P.transpose(1, 2, 0, 3) + P.transpose(1, 0, 2, 3)
    gamma -= np.einsum("ks...,sij...->kij...", gi, dG)
    gamma *= 0.5
    # gamma^k_kl gamma^l_ij - P[a]^a_k gamma^k_ij, the first-order part of R_ij
    c = 0.5 * np.einsum("kaa...->k...", P) - np.einsum("aak...->k...", P)
    ric = np.einsum("k...,kij...->ij...", c, gamma)
    ric -= np.einsum("kjl...,lki...->ij...", gamma, gamma)
    # twice the rest of d_k gamma^k_ij - d_j gamma^k_ki, flattened over (i, j);
    # 2 g^ks d_k d_j g_is = 2 g^ks ddg[k, j, i, s] is added at (j, i), and the
    # symmetrization below makes it the sum with its d_k d_i g_js companion
    gm, flat = gi.reshape(n * n, p), ddG.reshape(n * n, n * n, p)
    rest = np.einsum("jab...,iba...->ij...", P, P).reshape(n * n, p)
    rest -= np.einsum("m...,mq...->q...", gm, flat)
    rest -= np.einsum("m...,qm...->q...", gm, flat)
    mixed = ddG.reshape(n, n * n, n, p)
    for s in range(n):
        rest += np.einsum("k...,kq...->q...", 2.0 * gi[:, s], mixed[:, :, s])
    ric += 0.5 * rest.reshape(n, n, p)
    ric = 0.5 * (ric + ric.transpose(1, 0, 2))
    scalar = np.einsum("ij...,ij...->...", gi, ric)
    einstein_ = ric - 0.5 * scalar * g.transpose(1, 2, 0)
    gamma, ric, einstein_ = gamma.transpose(3, 0, 1, 2), ric.transpose(2, 0, 1), einstein_.transpose(2, 0, 1)
    return CurvatureBundle(gamma, ric, scalar, einstein_, ginv, det, dg, ddg)
