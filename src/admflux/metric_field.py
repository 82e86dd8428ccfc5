"""Evaluatable Riemannian metrics on the outside of a ball, with second-order jets.

A metric field is a map ``x -> (g, dg, ddg)`` on ``{|x| >= inner_radius}`` in
Cartesian coordinates.  Index conventions used throughout the package:

* ``g[i, j]``          -- metric components ``g_ij``
* ``dg[k, i, j]``      -- first partials ``d_k g_ij``
* ``ddg[k, l, i, j]``  -- second partials ``d_k d_l g_ij``

Batched variants carry one leading point axis, e.g. ``dg[p, k, i, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

Array = np.ndarray

#: Relative finite-difference step; absolute floor keeps steps sane near the origin.
FD_STEP_REL = 1e-4


def default_fd_step(x) -> float:
    """Step size for finite-difference jets: ``max(1e-4, 1e-4 * |x|)``."""
    return max(FD_STEP_REL, FD_STEP_REL * float(np.linalg.norm(x)))


@dataclass(frozen=True)
class MetricJet2:
    """Value and first two derivative arrays of a metric at one point.

    ``g`` is symmetric positive definite, ``dg`` is symmetric in its last two
    axes and ``ddg`` in both its first and last pairs.  Parity decompositions
    reuse this container for raw component arrays that need not satisfy the
    positivity invariant.
    """

    dim: int
    g: Array
    dg: Array
    ddg: Array

    def check(self, tol: float = 1e-10) -> None:
        """Raise ``ValueError`` if a symmetry or positivity invariant fails."""
        n = self.dim
        if self.g.shape != (n, n) or self.dg.shape != (n, n, n) or self.ddg.shape != (n, n, n, n):
            raise ValueError("jet arrays have inconsistent shapes")
        scale = 1.0 + float(np.max(np.abs(self.g)))
        if np.max(np.abs(self.g - self.g.T)) > tol * scale:
            raise ValueError("metric value is not symmetric")
        if np.max(np.abs(self.dg - self.dg.transpose(0, 2, 1))) > tol * (1 + np.max(np.abs(self.dg))):
            raise ValueError("dg is not symmetric in (i, j)")
        dd = self.ddg
        err = max(
            np.max(np.abs(dd - dd.transpose(0, 1, 3, 2))),
            np.max(np.abs(dd - dd.transpose(1, 0, 2, 3))),
        )
        if err > tol * (1 + np.max(np.abs(dd))):
            raise ValueError("ddg is not symmetric in (i, j) or (k, l)")
        if np.any(np.linalg.eigvalsh(self.g) <= 0):
            raise ValueError("metric value is not positive definite")

    @property
    def h(self) -> Array:
        """Deviation from the flat metric, ``g - identity``."""
        return self.g - np.eye(self.dim)


@dataclass(frozen=True)
class MetricField:
    """A metric with evaluatable jets on ``{|x| >= inner_radius}``.

    ``jet_at`` maps a point to a :class:`MetricJet2` and must be deterministic
    and reentrant.  ``jet_batch``, when provided, maps an ``(N, dim)`` array of
    points to batched ``(g, dg, ddg)`` arrays and is used to vectorize surface
    and volume integrals; it must agree with ``jet_at`` pointwise.

    ``metadata`` carries optional catalog information such as ``expected_mass``,
    ``expected_center``, ``globally_smooth`` and a human-readable ``label``.
    """

    dim: int
    jet_at: Callable[[Array], MetricJet2]
    inner_radius: float = 1.0
    metadata: dict = field(default_factory=dict)
    jet_batch: Callable[[Array], tuple[Array, Array, Array]] | None = None

    @property
    def label(self) -> str:
        return self.metadata.get("label", "metric")


def _check_domain(field_: MetricField, points: Array) -> None:
    radii = np.linalg.norm(np.atleast_2d(points), axis=1)
    low = float(np.min(radii))
    if low < field_.inner_radius * (1 - 1e-12):
        raise DomainError(
            f"point at radius {low:.6g} lies inside inner_radius "
            f"{field_.inner_radius:.6g} of field {field_.label!r}"
        )


def jet2(field_: MetricField, x) -> MetricJet2:
    """Evaluate the jet of ``field_`` at ``x`` after a domain check."""
    x = np.asarray(x, dtype=float)
    if x.shape != (field_.dim,):
        raise ValueError(f"expected a point in R^{field_.dim}, got shape {x.shape}")
    _check_domain(field_, x)
    return field_.jet_at(x)


def jet2_batch(field_: MetricField, points: Array) -> tuple[Array, Array, Array]:
    """Jets at many points as stacked arrays ``(g, dg, ddg)`` with a leading point axis."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_domain(field_, points)
    if field_.jet_batch is not None:
        return field_.jet_batch(points)
    jets = [field_.jet_at(p) for p in points]
    return (
        np.stack([j.g for j in jets]),
        np.stack([j.dg for j in jets]),
        np.stack([j.ddg for j in jets]),
    )


def fd_jet2(values: Callable[[Array], Array], x, h: float | None = None) -> MetricJet2:
    """Second-order central-difference jet of a metric given only by its values.

    Parameters
    ----------
    values : callable
        Map from a point to the symmetric matrix of metric components, defined
        on a ball of radius ``2 h`` around ``x``.
    x : array_like
        Evaluation point.
    h : float, optional
        Step size; defaults to :func:`default_fd_step`.

    The derivative error is ``O(h^2)`` for C^4 metrics, and the stencils are
    exact on quadratic polynomials.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if h is None:
        h = default_fd_step(x)
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    g0 = np.asarray(values(x), dtype=float)
    dg = np.empty((n, n, n))
    ddg = np.empty((n, n, n, n))
    offs = h * np.eye(n)
    for k in range(n):
        gp = np.asarray(values(x + offs[k]), dtype=float)
        gm = np.asarray(values(x - offs[k]), dtype=float)
        dg[k] = (gp - gm) / (2 * h)
        ddg[k, k] = (gp - 2 * g0 + gm) / h**2
    for k in range(n):
        for l in range(k + 1, n):
            mixed = (
                np.asarray(values(x + offs[k] + offs[l]), dtype=float)
                - np.asarray(values(x + offs[k] - offs[l]), dtype=float)
                - np.asarray(values(x - offs[k] + offs[l]), dtype=float)
                + np.asarray(values(x - offs[k] - offs[l]), dtype=float)
            ) / (4 * h**2)
            ddg[k, l] = mixed
            ddg[l, k] = mixed
    return MetricJet2(dim=n, g=g0, dg=dg, ddg=ddg)


def field_from_values(
    values: Callable[[Array], Array],
    dim: int,
    inner_radius: float = 1.0,
    h: float | None = None,
    metadata: dict | None = None,
) -> MetricField:
    """Wrap a metric given only by its component values, differencing for jets.

    The fallback for metrics without analytic derivatives: every jet request
    goes through :func:`fd_jet2` with step ``h`` (relative default).  The
    values callable must be defined a stencil-width inside ``inner_radius``.
    """

    def jet_at(x: Array) -> MetricJet2:
        return fd_jet2(values, x, h)

    return MetricField(dim=dim, jet_at=jet_at, inner_radius=inner_radius,
                       metadata=metadata or {"label": "finite-difference field"})


def parity_split(field_: MetricField, x) -> tuple[MetricJet2, MetricJet2]:
    """Even/odd decomposition of every jet component function at ``x``.

    Each entry ``e`` of the jet is treated as a scalar function of the point;
    the even part is ``(e(x) + e(-x)) / 2`` and the odd part is
    ``(e(x) - e(-x)) / 2``, so ``even + odd`` reconstructs the jet at ``x``
    exactly.  The returned parts are raw component arrays: the odd part is not
    itself a metric jet.  Both ``x`` and ``-x`` must lie in the field's domain.
    """
    x = np.asarray(x, dtype=float)
    a = jet2(field_, x)
    b = jet2(field_, -x)
    even = MetricJet2(
        dim=a.dim, g=0.5 * (a.g + b.g), dg=0.5 * (a.dg + b.dg), ddg=0.5 * (a.ddg + b.ddg)
    )
    odd = MetricJet2(
        dim=a.dim, g=0.5 * (a.g - b.g), dg=0.5 * (a.dg - b.dg), ddg=0.5 * (a.ddg - b.ddg)
    )
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

    @property
    def samples(self) -> list[tuple[float, tuple[float, float, float]]]:
        return [(r, tuple(self.sups[a])) for a, r in enumerate(self.radii)]


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


def decay_report(field_: MetricField, radii, tau: float, part: str = "all",
                 sample_order: int = 8) -> DecayReport:
    """Empirically check that ``h`` (or its odd part) decays like ``o(|x|^-tau)``.

    For ``part="all"`` the order-m sample at radius r is the sup of
    ``r^(m + tau) |d^m h|`` over a fixed angular grid.  For ``part="odd"`` the
    derivatives are those of the odd part ``h_odd(x) = (h(x) - h(-x)) / 2``,
    whose jet combines values at ``x`` and ``-x`` with alternating signs:
    ``d h_odd(x) = (dh(x) + dh(-x)) / 2`` and
    ``dd h_odd(x) = (ddh(x) - ddh(-x)) / 2``.

    The angular sample set is the unit-sphere quadrature grid at
    ``sample_order``, so reported sups are reproducible.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("decay_report needs at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if radii[0] < field_.inner_radius:
        raise DomainError(f"radius {radii[0]} below inner_radius {field_.inner_radius}")
    if part not in ("all", "odd"):
        raise ValueError(f"part must be 'all' or 'odd', got {part!r}")

    from .surfaces import unit_sphere_rule  # deferred: surfaces imports this module

    dirs, _ = unit_sphere_rule(field_.dim, sample_order)
    eye = np.eye(field_.dim)
    sups = np.zeros((len(radii), 3))
    for a, r in enumerate(radii):
        pts = r * dirs
        g, dg, ddg = jet2_batch(field_, pts)
        if part == "odd":
            gm, dgm, ddgm = jet2_batch(field_, -pts)
            h = 0.5 * (g - gm)
            dh = 0.5 * (dg + dgm)
            ddh = 0.5 * (ddg - ddgm)
        else:
            h = g - eye
            dh = dg
            ddh = ddg
        sups[a, 0] = r**tau * np.max(np.abs(h))
        sups[a, 1] = r ** (1 + tau) * np.max(np.abs(dh))
        sups[a, 2] = r ** (2 + tau) * np.max(np.abs(ddh))
    half = len(radii) - (len(radii) + 1) // 2
    verdicts = tuple(decreasing_to_zero(sups[half:, m]) for m in range(3))
    return DecayReport(tau=tau, part=part, radii=tuple(radii), sups=sups, verdicts=verdicts)
