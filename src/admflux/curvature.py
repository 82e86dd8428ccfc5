"""Batched tensor calculus: Christoffel symbols, Ricci, scalar and Einstein tensors.

Every function takes a leading point axis, so that surface and volume
integrals evaluate curvature at many quadrature nodes per call; there is no
single-point variant.  All formulas are the full nonlinear ones;
:func:`linearized_scalar_arrays` gives the second-derivative truncation of the
scalar curvature separately, as a cross-check quantity.

With jets laid out as ``dg[l,i,j] = d_l g_ij`` and ``ddg[l,k,i,j] = d_l d_k g_ij``
and ``T_sij = d_j g_is + d_i g_js - d_s g_ij``, the kernel
:func:`curvature_arrays` contracts the derivatives of the connection that the
Ricci tensor needs as it forms them:

* ``gamma^k_ij = g^ks T_sij / 2``;
* ``d_k gamma^k_ij = v^s T_sij / 2 + g^ks (d_k d_j g_is + d_k d_i g_js - d_k d_s g_ij) / 2``
  with ``v^s = d_k g^ks = -g^ka d_k g_ab g^bs``;
* ``d_j gamma^k_ki = g^ks d_j d_i g_ks / 2 - g^ka d_j g_ab g^bs d_i g_ks / 2``;
* ``R_ij = d_k gamma^k_ij - d_j gamma^k_ki + gamma^k_kl gamma^l_ij - gamma^k_jl gamma^l_ki``.

The full partials ``d_l gamma^k_ij`` are formed only on request
(:attr:`CurvatureBundle.dgamma`).
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
    first) are computed from them each time the property is read.
    """

    gamma: Array
    ricci: Array
    scalar: Array
    einstein: Array
    ginv: Array
    dg: Array = field(repr=False)
    ddg: Array = field(repr=False)

    @property
    def dgamma(self) -> Array:
        """``d_l gamma^k_ij = (d_l g^ks T_sij + g^ks d_l T_sij) / 2``."""
        ginv, ddg = self.ginv, self.ddg
        dginv = -np.einsum("...ab,...lbc,...cd->...lad", ginv, self.dg, ginv)
        dT = np.einsum("...ljis->...lsij", ddg) + np.einsum("...lijs->...lsij", ddg) - ddg
        return 0.5 * (
            np.einsum("...lks,...sij->...lkij", dginv, _lowered_connection(self.dg))
            + np.einsum("...ks,...lsij->...lkij", ginv, dT)
        )


def metric_inverse(g: Array) -> Array:
    """Inverse metric with finiteness and condition-number guards (batched).

    For symmetric ``g`` the 2-norm condition number is ``max|lambda| / min|lambda|``
    over its eigenvalues, so ``eigvalsh`` stands in for an SVD.
    """
    if not np.isfinite(g).all():
        raise SingularMetricError("metric has non-finite entries")
    lam = np.abs(np.linalg.eigvalsh(g))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=-1) / lam.min(axis=-1)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > CONDITION_LIMIT:
        raise SingularMetricError(
            f"metric condition number {worst:.3e} exceeds limit {CONDITION_LIMIT:.0e}"
        )
    return np.linalg.inv(g)


def _lowered_connection(dg: Array) -> Array:
    """``T[s,i,j] = d_j g_is + d_i g_js - d_s g_ij`` over any leading axes."""
    return np.einsum("...jis->...sij", dg) + np.einsum("...ijs->...sij", dg) - dg


def curvature_arrays(g: Array, dg: Array, ddg: Array) -> CurvatureBundle:
    """Full curvature bundle from batched jets ``g[p,i,j]``, ``dg[p,l,i,j]``, ``ddg[p,l,k,i,j]``.

    With ``T_sij = d_j g_is + d_i g_js - d_s g_ij`` and
    ``v^s = d_k g^ks = -g^ka d_k g_ab g^bs``:

    * ``gamma^k_ij = g^ks T_sij / 2``;
    * ``d_k gamma^k_ij = v^s T_sij / 2 + g^ks (d_k d_j g_is + d_k d_i g_js - d_k d_s g_ij) / 2``;
    * ``d_j gamma^k_ki = g^ks d_j d_i g_ks / 2 - g^ka d_j g_ab g^bs d_i g_ks / 2``;
    * ``R_ij = d_k gamma^k_ij - d_j gamma^k_ki + gamma^k_kl gamma^l_ij - gamma^k_jl gamma^l_ki``,
      symmetrized against rounding; ``R = g^ij R_ij`` and ``G_ij = R_ij - R g_ij / 2``.

    The divergence and the trace derivative are contracted as they are
    formed, so the 5-index ``dgamma`` array is never built here.
    """
    ginv = metric_inverse(g)
    T = _lowered_connection(dg)
    p, n = g.shape[:2]
    gamma = 0.5 * (ginv @ T.reshape(p, n, n * n)).reshape(T.shape)
    # P[l] = ginv @ dg[l]:  v^s = -P[k,k,b] g^bs  and  g^ka d_j g_ab g^bs d_i g_ks = tr(P[j] P[i])
    P = ginv[:, None] @ dg
    v = -np.einsum("pkkb,pbs->ps", P, ginv, optimize=True)
    # A_ij = g^ks d_k d_j g_is, read as d_j d_k g_si so that k, s are adjacent in ddg;
    # the d_k d_i g_js term is its transpose
    A = np.einsum("pks,pjksi->pij", ginv, ddg, optimize=True)
    # div and trace_d are twice d_k gamma^k_ij and twice d_j gamma^k_ki
    div = (
        np.einsum("ps,psij->pij", v, T, optimize=True)
        + A
        + A.swapaxes(-1, -2)
        - np.einsum("pks,pksij->pij", ginv, ddg, optimize=True)
    )
    trace_d = np.einsum("pks,pjiks->pij", ginv, ddg, optimize=True) - np.einsum(
        "pjks,pisk->pij", P, P, optimize=True
    )
    ric = 0.5 * (div - trace_d) + (
        np.einsum("pkkl,plij->pij", gamma, gamma, optimize=True)
        - np.einsum("pkjl,plki->pij", gamma, gamma, optimize=True)
    )
    ric = 0.5 * (ric + ric.swapaxes(-1, -2))
    scalar = np.einsum("pij,pij->p", ginv, ric)
    einstein_ = ric - 0.5 * scalar[:, None, None] * g
    return CurvatureBundle(
        gamma=gamma, ricci=ric, scalar=scalar, einstein=einstein_, ginv=ginv, dg=dg, ddg=ddg
    )


def linearized_scalar_arrays(ddg: Array) -> Array:
    """Second-derivative truncation of the scalar curvature on a ``(p, k, l, i, j)`` array.

    Returns ``sum_{i,k} (d_i d_k g_ik - d_i d_i g_kk)`` at each point, which
    agrees with the full scalar curvature up to terms quadratic in the metric
    deviation.
    """
    return np.einsum("pikik->p", ddg) - np.einsum("piikk->p", ddg)
