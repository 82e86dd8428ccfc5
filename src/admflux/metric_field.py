"""Evaluatable Riemannian metrics on the outside of a ball, with jets to a requested order.

A metric field maps an ``(N, n)`` array of points on ``{|x| >= inner_radius}``
and a derivative count 1 or 2 to the batched jets ``(g, dg)`` or ``(g, dg, ddg)``,
with one leading point axis and the index conventions used throughout the package:

* ``g[p, i, j]``          -- metric components ``g_ij``
* ``dg[p, k, i, j]``      -- first partials ``d_k g_ij``
* ``ddg[p, k, l, i, j]``  -- second partials ``d_k d_l g_ij``

:func:`jet2_batch` is the one place jets are read: it checks the domain
before a field is called and the finiteness of the levels asked for.  The
shapes are point-first and any strides are allowed; jets stored with the
point axis last, whose point-first views a field returns, reach the curvature
kernel without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteError

Array = np.ndarray
Jets = tuple[Array, ...]

#: Relative finite-difference step; absolute floor keeps steps sane near the origin.
FD_STEP_REL = 1e-4


@dataclass(frozen=True)
class MetricField:
    """A metric with evaluatable jets on ``{|x| >= inner_radius}``.

    ``jet_batch(points, derivatives)`` maps an ``(N, dim)`` array of points to the
    batched jets ``(g, dg)`` for ``derivatives == 1`` or ``(g, dg, ddg)`` for ``2``
    (or more levels, the same for either count); it must be deterministic and
    reentrant, and each point's jets must not depend on the other points.  ``g`` is
    symmetric positive definite, ``dg`` symmetric in its last two axes and
    ``ddg`` in both its derivative and its component pairs.  The arrays have
    the point-first shapes ``(N, n, n)``, ``(N, n, n, n)`` and
    ``(N, n, n, n, n)`` with any strides; point-last storage is the copy-free
    path through the curvature kernel.

    ``inner_radius == 0`` means the whole space.  ``metadata`` carries optional
    catalog information such as ``expected_mass`` and a human-readable ``label``.
    """

    dim: int
    jet_batch: Callable[[Array, int], Jets]
    inner_radius: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.metadata.get("label", "metric")


def _check_domain(field_: MetricField, points: Array) -> None:
    low = float(np.einsum("pi,pi->p", points, points).min())
    if low < (field_.inner_radius * (1 - 1e-12)) ** 2:
        raise DomainError(
            f"point at radius {low ** 0.5:.6g} lies inside inner_radius "
            f"{field_.inner_radius:.6g} of field {field_.label!r}"
        )


def _check_finite(field_: MetricField, points: Array, jets: Jets) -> None:
    if all(np.isfinite(arr).all() for arr in jets):
        return  # a third of the cost of locating the first bad point
    finite = np.logical_and.reduce(
        [np.isfinite(arr).reshape(len(points), -1).all(axis=1) for arr in jets]
    )
    radius = float(np.linalg.norm(points[np.argmin(finite)]))
    raise NonFiniteError(f"non-finite jet of field {field_.label!r} at radius {radius:.6g}")


def jet2_batch(field_: MetricField, points: Array, derivatives: int = 2) -> Jets:
    """Jets of ``field_`` at ``points``: ``(g, dg)`` for ``derivatives == 1``, ``(g, dg, ddg)`` for ``2``.

    Raises :class:`DomainError` when a point lies inside the field's inner
    radius and :class:`NonFiniteError` when an entry of a level asked for is
    NaN or infinite; both name the field and the radius of the offending point.
    """
    if derivatives not in (1, 2):
        raise ValueError(f"derivatives must be 1 or 2, got {derivatives}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_domain(field_, points)
    jets = tuple(field_.jet_batch(points, derivatives)[: derivatives + 1])
    _check_finite(field_, points, jets)
    return jets


def fd_jet2(values: Callable[[Array], Array], points: Array, h: float | None = None,
            derivatives: int = 2) -> Jets:
    """Central-difference jets of a metric given only by its values.

    Parameters
    ----------
    values : callable
        Map from an ``(M, n)`` array of points to the ``(M, n, n)`` symmetric
        metric components there, defined on a ball of radius ``2 h`` around
        each of ``points``.
    points : array_like
        ``(N, n)`` evaluation points.
    h : float, optional
        Step size; defaults to ``max(1e-4, 1e-4 * |x|)`` at each point.
    derivatives : int, optional
        ``1`` for ``(g, dg)`` from the ``2n + 1`` axis stencil points alone, ``2`` for ``(g, dg, ddg)``.

    ``values`` is called once, on every stencil point of every evaluation
    point.  The derivative error is ``O(h^2)`` for C^4 metrics, and the
    stencils are exact on quadratic polynomials.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, n = points.shape
    if h is None:
        steps = np.maximum(FD_STEP_REL, FD_STEP_REL * np.linalg.norm(points, axis=1))
    elif h > 0:
        steps = np.full(N, float(h))
    else:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    e = steps[:, None] * np.eye(n)[:, None, :]  # e[k] = h e_k at every point
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)] if derivatives == 2 else []
    stencil = [points]
    for k in range(n):
        stencil += [points + e[k], points - e[k]]
    for k, l in pairs:
        stencil += [points + e[k] + e[l], points + e[k] - e[l],
                    points - e[k] + e[l], points - e[k] - e[l]]
    vals = np.asarray(values(np.concatenate(stencil)), dtype=float).reshape(len(stencil), N, n, n)
    h = steps[:, None, None]
    g0 = vals[0]
    dg = np.empty((N, n, n, n))
    ddg = np.empty((N, n, n, n, n))
    for k in range(n):
        gp, gm = vals[1 + 2 * k], vals[2 + 2 * k]
        dg[:, k] = (gp - gm) / (2 * h)
        ddg[:, k, k] = (gp - 2 * g0 + gm) / h**2
    for m, (k, l) in enumerate(pairs):
        pp, pm, mp, mm = vals[1 + 2 * n + 4 * m: 5 + 2 * n + 4 * m]
        ddg[:, k, l] = ddg[:, l, k] = (pp - pm - mp + mm) / (4 * h**2)
    return (g0, dg) if derivatives == 1 else (g0, dg, ddg)


def parity_parts(jets: Jets, reflected: Jets) -> tuple[Jets, Jets]:
    """Jets of the even and odd parts of ``f`` from its jets at ``x`` and at ``-x``.

    The even part is ``(f(x) + f(-x)) / 2`` and the odd part
    ``(f(x) - f(-x)) / 2``.  Each derivative of ``f(-x)`` carries one sign
    flip, so the odd part's first derivatives are ``(df(x) + df(-x)) / 2``
    and its second ``(ddf(x) - ddf(-x)) / 2``, the reverse for the even part;
    for any number of levels, and ``even + odd`` reconstructs ``jets``.  For a
    metric the odd part is raw jet arrays, not itself a metric.
    """
    even = tuple(0.5 * (f - fm) if k % 2 else 0.5 * (f + fm) for k, (f, fm) in enumerate(zip(jets, reflected)))
    odd = tuple(0.5 * (f + fm) if k % 2 else 0.5 * (f - fm) for k, (f, fm) in enumerate(zip(jets, reflected)))
    return even, odd


@dataclass(frozen=True)
class DecayReport:
    """Weighted sup norms of ``h = g - identity`` over a radius schedule.

    ``sups[a, m]`` is the maximum of ``|x|^(m + tau) * |d^m h|`` over the
    angular sample set at radius ``radii[a]``, for derivative order
    ``m in {0, 1, 2}``.  ``verdicts[m]`` is true when that order's sequence is
    non-increasing over the last half of the schedule, the computable
    surrogate for ``o(|x|^-tau)`` decay.
    """

    tau: float
    part: str
    radii: tuple[float, ...]
    sups: Array  # shape (len(radii), 3)
    verdicts: tuple[bool, bool, bool]

    @property
    def ok(self) -> bool:
        return all(self.verdicts)


def decreasing_to_zero(seq, floor=None) -> bool:
    """Strict decrease, with entries at the rounding floor counting as decayed.

    ``floor`` gives each entry's rounding floor (a number or one per entry);
    by default it is ``1e-12 * max(1, max(seq))`` for all of them.  A constant
    positive sequence fails (no decay); trailing zeros after a decrease, or an
    all-zero sequence, pass.
    """
    seq = np.asarray(seq, dtype=float)
    if floor is None:
        floor = 1e-12 * max(1.0, float(np.max(seq, initial=0.0)))
    floors = np.broadcast_to(np.asarray(floor, dtype=float), seq.shape)
    ok = True
    for a, b, fa, fb in zip(seq, seq[1:], floors, floors[1:]):
        if a <= fa and b <= fb:
            continue
        ok = ok and (b <= a * (1.0 - 1e-9))
    return bool(ok)


def decay_report(field_: MetricField, radii) -> tuple[DecayReport, DecayReport]:
    """Empirically check the decay of ``h`` and of its odd part, as ``(all, odd)`` reports.

    ``all`` tests ``h = o(|x|^-tau)`` with ``tau = (n - 2) / 2`` (the mass
    hypothesis), ``odd`` the odd part with ``tau = n / 2`` (the center's).
    The order-m sample at radius r is the sup of ``r^(m + tau) |d^m h|`` over
    the order-8 unit-sphere quadrature grid, so reported sups are
    reproducible; for ``odd`` they are the jets of ``h_odd(x) = (h(x) - h(-x)) / 2`` that
    :func:`parity_parts` gives from one jet evaluation of the grid and its reflection per radius.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("decay_report needs at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")

    from .surfaces import unit_sphere_rule  # deferred: surfaces imports this module

    n = field_.dim
    dirs, _ = unit_sphere_rule(n, 8)
    taus = {"all": (n - 2) / 2.0, "odd": n / 2.0}
    sups = {part: np.zeros((len(radii), 3)) for part in taus}
    m = len(dirs)
    for a, r in enumerate(radii):
        g, dg, ddg = jet2_batch(field_, np.concatenate([r * dirs, -r * dirs]))
        h = (g[:m] - np.eye(n), dg[:m], ddg[:m])
        _, odd = parity_parts((g[:m], dg[:m], ddg[:m]), (g[m:], dg[m:], ddg[m:]))
        sups["all"][a] = [r ** (k + taus["all"]) * np.max(np.abs(d)) for k, d in enumerate(h)]
        sups["odd"][a] = [r ** (k + taus["odd"]) * np.max(np.abs(d)) for k, d in enumerate(odd)]
    half = len(radii) - (len(radii) + 1) // 2
    return tuple(
        DecayReport(
            tau=taus[part],
            part=part,
            radii=tuple(radii),
            sups=sups[part],
            verdicts=tuple(decreasing_to_zero(sups[part][half:, m]) for m in range(3)),
        )
        for part in taus
    )
