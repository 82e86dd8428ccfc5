"""Radius sweeps, power-law limit extrapolation, and convergence verdicts.

:func:`sweep` is the one entry point: it samples a list of functionals over a
growing schedule of surfaces in one pass, each surface evaluated once for all
of them by :func:`~admflux.invariants.surface_totals`, in blocks of surfaces of
one order, and then divides the centers by the mass.  The orders are walked by
:func:`~admflux.invariants.refine`, as the scalar-curvature shells' directions
are: the start order is accepted once its half agrees with it, and a failure
names the first surface that fails alone.  It fits each on the tail with the
model ``value(r) = limit + A * r^(-p)``, one :func:`fit_power_law` call for all
of a functional's components: a bracketed Newton search of each component's
rate over ``[-8, 8]``, started from the rate of its first and last
differences.  A fitted rate is reported alongside the limit rather than
assumed, since the decay hypotheses only guarantee convergence without a
rate; samples that grow fit a rate of at most 0, and no verdict passes them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError
from .invariants import CENTER_FUNCTIONALS, MAX_ORDER, REFINEMENT_TOL, SECOND_ORDER
from .invariants import _naming, normalized, refine, surface_totals
from .metric_field import MetricField
from .surfaces import ellipsoid_quadrature, rule_size, sphere_quadrature

DEFAULT_TOL = 1e-4

#: The swept functionals, in the order their checks are reported.  ``fn(total,
#: dim, mass)`` turns a surface total into the functional's value.
FUNCTIONALS: dict[str, dict] = {
    name: {"fn": functools.partial(normalized, name)}
    for name in ("adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center")
}


@dataclass(frozen=True)
class PowerLawFit:
    limit: float | np.ndarray
    amplitude: float | np.ndarray
    rate: float | np.ndarray


#: The rate search's bracket is ``[-MAX_RATE, MAX_RATE]``: samples that grow fit a rate of at most 0.
MAX_RATE = 8.0


def fit_power_law(radii, values) -> PowerLawFit:
    """Least-squares fit of ``limit + A * r^(-p)`` to one row of samples, or to each of rows.

    The rate enters nonlinearly, so :func:`_rate` searches each row's rate on
    the profiled residual (the linear parameters solved exactly at each trial
    rate, the variable projection of Golub and Pereyra) over ``[-MAX_RATE,
    MAX_RATE]``, from :func:`_start`: samples that grow fit a rate of at most
    0, and exact power-law data is recovered to machine precision in a few
    steps.  A row that spreads at the rounding floor, or does not decay and
    spreads less than :data:`REFINEMENT_TOL` of ``1 + max|v|``, fits its mean
    at rate 1.  Radii must be positive and samples finite (:class:`NonFiniteError`).
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if not (np.isfinite(r).all() and np.isfinite(v).all()):
        raise NonFiniteError(f"fit_power_law needs finite samples, got radii {r.tolist()}, values {v.tolist()}")
    if r.ndim != 1 or v.ndim not in (1, 2) or v.shape[-1] != len(r) or len(r) < 3 or not np.all(r > 0):
        raise ValueError("fit_power_law needs rows of samples matching positive radii, at least 3 of them")
    rows = np.atleast_2d(v)
    # spread at the quadrature-refinement noise floor: already converged
    flat = np.ptp(rows, axis=-1) <= 1e-11 * np.maximum(1.0, np.max(np.abs(rows), axis=-1))
    fits = [(row.mean(), 0.0, 1.0) if row_flat else
            _rate(r.tolist(), row.tolist(), -MAX_RATE, MAX_RATE, _start(r, row))
            for row, row_flat in zip(rows, flat)]
    L, A, p = np.array(fits).T
    # a row that does not decay but spreads within the refinement tolerance has converged too
    noise = (p <= 0) & (np.ptp(rows, axis=-1) <= REFINEMENT_TOL * (1.0 + np.max(np.abs(rows), axis=-1)))
    L, A, p = np.where(noise, rows.mean(axis=-1), L), np.where(noise, 0.0, A), np.where(noise, 1.0, p)
    if v.ndim == 1:
        return PowerLawFit(limit=float(L[0]), amplitude=float(A[0]), rate=float(p[0]))
    return PowerLawFit(limit=L, amplitude=A, rate=p)


def _start(r: np.ndarray, v: np.ndarray) -> float:
    """The rate ``log(d_0 / d_last) / log(r_(m-2) / r_0)`` of the first and last differences, clipped to the
    bracket and exact for ``r^-p`` on a geometric schedule; 1 where they differ in sign, one is 0, or it is 0."""
    d0, dl, span = float(v[1] - v[0]), float(v[-1] - v[-2]), math.log(r[-2] / r[0])
    if not (d0 * dl > 0 and span):
        return 1.0
    return min(max((math.log(abs(d0)) - math.log(abs(dl))) / span, -MAX_RATE), MAX_RATE) or 1.0


def _rate(r: list[float], v: list[float], low: float, high: float, p: float) -> tuple[float, float, float]:
    """``(L, A, p)`` at the least profiled residual of ``L + A r^-p - v`` for a rate in ``[low, high]``.

    From ``p``, each step solves ``(L, A)`` from centred sums and takes a Newton
    step on the residual's slope with its Gauss-Newton curvature, the rate
    derivative of ``r^-p`` projected off ``span{1, r^-p}`` (Kaufman 1975); a step
    that would leave the bracket, or follows a Newton step that did not halve it, bisects.
    Stops at a zero slope, or at a step or bracket below ``1e-14 max(1, |p|)``.
    The column ``(r/r0)^-p - 1``, ``r0`` an end radius, lies in ``(-1, 0]``: it
    cannot overflow and keeps its precision near ``p = 0``.  Python floats.
    """
    mean_v, log_r = math.fsum(v) / len(v), [math.log(ri) for ri in r]
    dv = [vi - mean_v for vi in v]
    width, best = math.inf, (p, math.inf)  # (rate, Newton step) nearest convergence
    for _ in range(103):  # the bracket 2^4 takes 51 halvings to 2^-47 < 1e-14, one every other step after the first
        t = [lr - log_r[0 if p >= 0 else -1] for lr in log_r]
        u = [math.expm1(-p * ti) for ti in t]
        mean_u = math.fsum(u) / len(u)
        du = [ui - mean_u for ui in u]
        uu = math.fsum(d * d for d in du)
        if not uu:  # p = 0: r^-p is the constant
            return mean_v, 0.0, p
        a = math.fsum(d * e for d, e in zip(du, dv)) / uu
        w = [-ti * (1.0 + ui) for ti, ui in zip(t, u)]  # du/dp, projected off span{1, u} as z
        mean_w = math.fsum(w) / len(w)
        along = math.fsum((wi - mean_w) * d for wi, d in zip(w, du)) / uu
        z = [wi - mean_w - along * d for wi, d in zip(w, du)]
        ez, zz = math.fsum((e - a * d) * zi for e, d, zi in zip(dv, du, z)), math.fsum(zi * zi for zi in z)
        low, high = (low, p) if a * ez < 0 else (p, high)  # the residual falls toward the kept end
        step, done = ez / (a * zz) if a * zz else math.inf, 1e-14 * max(1.0, abs(p))
        if not a * ez or abs(step) <= done or high - low <= done:
            break
        best = min(best, (p, step), key=lambda b: abs(b[1]))
        trial = best[0] + best[1]
        bisect = not low < trial < high or high - low > 0.5 * width  # a bisection halves it: then Newton may step
        width, p = (math.inf, 0.5 * (low + high)) if bisect else (high - low, trial)
    else:
        raise AssertionError(f"the rate search outran its bound in [{low!r}, {high!r}]")
    r0 = r[0 if p >= 0 else -1]  # A = a r0^p, infinite past the float range
    return mean_v - a * (mean_u + 1.0), a * r0**p if p * math.log(r0) < 709.0 else math.copysign(math.inf, a), p


@dataclass(frozen=True)
class ConvergenceReport:
    """Functional samples over a schedule plus the fitted limit, rate and verdict: the record of every check.

    ``values`` has shape ``(len(radii),)`` for scalar functionals or
    ``(len(radii), dim)`` for vector ones, in which case ``fitted_limit`` is a
    vector and ``fitted_rate`` is the lowest if a component grows (a rate of at
    most 0 fails), else that of the largest fitted amplitude (the decay signal);
    checks that fit no rate leave it None.  The CLI renders a check's table from
    ``radii`` and ``values``, its columns named by ``columns`` when given;
    ``failure`` names what failed where when the table alone does not show it,
    for a sweep the radii whose refinement stalled at :data:`MAX_ORDER`.
    """

    radii: tuple[float, ...]
    values: np.ndarray
    fitted_limit: float | np.ndarray
    fitted_rate: float | None
    verdict: bool
    tolerance: float
    failure: str | None = None
    columns: tuple[str, ...] | None = None


def _fit_samples(radii: np.ndarray, values: np.ndarray) -> tuple:
    """``(limit, rate)`` of the tail in one fit: a vector's lowest rate if it grows, else its largest amplitude's."""
    tail = max(3, (len(radii) + 1) // 2)
    fit = fit_power_law(radii[-tail:], values[-tail:].T)
    rates = np.atleast_1d(fit.rate)
    return fit.limit, float(rates.min() if rates.min() <= 0 else rates[np.argmax(np.abs(fit.amplitude))])


def _verdict(values, limit, rate, tol) -> tuple[bool, float]:
    last = np.atleast_1d(values[-1]).astype(float)
    lim = np.atleast_1d(limit).astype(float)
    tol_eff = tol * (1.0 + float(np.max(np.abs(lim))))
    return bool(np.all(np.abs(last - lim) <= tol_eff) and rate > 0), tol_eff


def check_schedule(radii: Sequence[float], order: int) -> None:
    """Raise :class:`ConfigError` unless ``order`` is a start order from 2 to :data:`MAX_ORDER`
    and ``radii`` a finite, positive, strictly increasing schedule of at least 4 radii."""
    if not 2 <= order <= MAX_ORDER:
        raise ConfigError(f"start order must be between 2 and {MAX_ORDER}, got {order}")
    if len(radii) < 4 or not all(0 < r < math.inf for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(
            "schedule radii must be finite, positive and strictly increasing, with at least 4 entries"
        )


def _finite(value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"non-finite value {value.tolist()}")
    return value


def sweep(
    field: MetricField,
    functionals: Sequence[str],
    radii: Sequence[float],
    *,
    ratios: Sequence[float] | None = None,
    order: int = 24,
    mass: float | None = None,
    tol: float = DEFAULT_TOL,
) -> dict[str, ConvergenceReport]:
    """Evaluate named functionals over a growing surface schedule and fit their limits.

    ``radii`` is the increasing family parameter: the radius of coordinate
    spheres or, given ``ratios``, the scale ``r`` of the ellipsoids with
    semi-axes ``ratios * r``.  One pass walks the schedule order by order: the
    radii still refining are evaluated together, in blocks whose jets fit the
    bytes of one start-order surface's second-order jets, each surface once for
    every functional still refining at any radius.  Centers are
    then normalized by ``mass`` or, when it is None, by the fitted limit of
    ``adm_mass``, which is swept for them.  Reports come in the order of :data:`FUNCTIONALS`.

    Each (radius, functional) is refined by :func:`refine` from ``order`` (2
    to :data:`MAX_ORDER`): it evaluates the companion ``order // 2``, then
    ``order``, and accepts an order once it agrees with the one before to
    :data:`REFINEMENT_TOL` of ``1 + |value|``, judged on the surface integral
    before any division by the mass.  A radius still unconverged at
    :data:`MAX_ORDER` keeps that value and fails, named in the report's
    ``failure``.  The fit uses the last half of the samples; the verdict is
    true when no radius failed, the final sample sits within ``tol * (1 +
    |limit|)`` of the fitted limit and the fitted rate is positive.  A
    failing evaluation names the first functional and radius that fail alone;
    the package's own errors carry both in their message.
    """
    if isinstance(functionals, str):
        raise TypeError(f"sweep takes a list of functionals, got the string {functionals!r}")
    unknown = [f for f in functionals if f not in FUNCTIONALS]
    if unknown:
        raise ValueError(f"unknown functional {unknown[0]!r}; choose from {sorted(FUNCTIONALS)}")
    radii = [float(r) for r in radii]
    check_schedule(radii, order)
    names = [f for f in FUNCTIONALS if f in functionals]
    centers = [f for f in names if f in CENTER_FUNCTIONALS]
    if centers and mass is None and "adm_mass" not in names:
        names.insert(0, "adm_mass")

    per_node = [field.dim ** (k + 2) for k in range(3)]  # the floats of g, dg and ddg at a node
    budget = rule_size(field.dim, order) * sum(per_node)  # one start-order surface's jets to second order

    def evaluate(at: int, refining: list[tuple[int, str]]) -> list[tuple]:
        """``(value, scale, total)`` of each (radius index, name) of ``refining`` on its order-``at`` surface:
        blocks of the radii whose jets fit ``budget``, each for every name still refining at any radius."""
        where = list(dict.fromkeys(a for a, _ in refining))
        still = [f for f in names if any(f == name for _, name in refining)]
        levels = 3 if any(f in SECOND_ORDER for f in still) else 2  # the jets the blocks read
        size = max(1, budget // (rule_size(field.dim, at) * sum(per_node[:levels])))
        totals = {}
        for block in (where[b: b + size] for b in range(0, len(where), size)):
            got = surface_totals(field, [
                sphere_quadrature(field.dim, radii[a], at) if ratios is None
                else ellipsoid_quadrature([t * radii[a] for t in ratios], at)
                for a in block
            ], still)
            totals.update({(a, f): got[f][j] for f in still for j, a in enumerate(block)})
        values = [_finite(FUNCTIONALS[f]["fn"](totals[a, f], field.dim, 1.0)) for a, f in refining]
        return [(v, 1.0 + float(np.max(np.abs(v))), totals[key]) for v, key in zip(values, refining)]

    totals, stalled = refine(order, [(a, f) for a in range(len(radii)) for f in names], evaluate,
                             lambda key: f"{key[1]} at schedule radius {radii[key[0]]:g}")
    reports = {}
    for name in names:  # the masses come first, so a center can take the fitted mass
        if name in centers and mass is None:
            mass = float(reports["adm_mass"].fitted_limit)
        samples = []
        for a, r in enumerate(radii):
            with _naming(f"{name} at schedule radius {r:g}"):
                samples.append(_finite(normalized(name, totals[a, name], field.dim, mass)))
        values = np.stack(samples)
        limit, rate = _fit_samples(np.asarray(radii), values)
        verdict, tol_eff = _verdict(values, limit, rate, tol)
        failure = "; ".join(f"{name} unconverged at schedule radius {radii[a]:g} (order {MAX_ORDER})"
                            for a, f in stalled if f == name) or None
        reports[name] = ConvergenceReport(
            radii=tuple(radii),
            values=values,
            fitted_limit=limit,
            fitted_rate=rate,
            verdict=verdict and failure is None,
            tolerance=tol_eff,
            failure=failure,
        )
    return reports


def compare(a: ConvergenceReport, b: ConvergenceReport, tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Per-radius differences ``a - b`` with a fitted difference limit.

    The verdict is true when the fitted limit of the difference lies within
    ``tol`` of zero and its rate is positive.  Schedules must match exactly.
    """
    if a.radii != b.radii:
        raise ValueError(f"schedule mismatch: {a.radii} vs {b.radii}")
    if a.values.shape != b.values.shape:
        raise ValueError("cannot compare scalar and vector reports")
    diff = a.values - b.values
    limit, rate = _fit_samples(np.asarray(a.radii), diff)
    verdict = bool(np.max(np.abs(np.atleast_1d(limit))) <= tol and rate > 0)
    return ConvergenceReport(radii=a.radii, values=diff, fitted_limit=limit, fitted_rate=rate,
                             verdict=verdict, tolerance=tol)
