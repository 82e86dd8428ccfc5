"""Radius sweeps, power-law limit extrapolation, and convergence verdicts.

:func:`sweep` is the one entry point: it samples a list of functionals over a
growing schedule of surfaces, the masses in one pass and then the centers,
normalized by the mass, in a second, each surface evaluated once for all of
them.  It fits each on the tail with the model ``value(r) = limit + A * r^(-p)``.
A fitted rate is reported alongside the limit rather than assumed, since the
decay hypotheses only guarantee convergence without a rate.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AdmfluxError, NonFiniteError
from .invariants import CENTER_FUNCTIONALS, REFINEMENT_TOL, SurfaceEval, normalized
from .metric_field import MetricField
from .surfaces import QuadSurface, ellipsoid_quadrature, sphere_quadrature

DEFAULT_TOL = 1e-4
#: The highest quadrature order a sweep evaluates; doubling stops there.
MAX_ORDER = 96

#: The swept functionals, in the order their checks are reported.  ``fn(total,
#: dim, mass)`` turns a surface total into the functional's value.
FUNCTIONALS: dict[str, dict] = {
    name: {"fn": functools.partial(normalized, name), "needs_mass": name in CENTER_FUNCTIONALS}
    for name in ("adm_mass", "intrinsic_mass", "cs_center", "intrinsic_center")
}
#: The center functional on each mass functional's route: the jets (flux) or
#: the curvature bundle (curvature) a mass total needs also give that center's total.
_CENTER_ON_ROUTE = {"adm_mass": "cs_center", "intrinsic_mass": "intrinsic_center"}


@dataclass(frozen=True)
class PowerLawFit:
    limit: float
    amplitude: float
    rate: float
    residual: float


#: Trial rates of the coarse scan that seeds the profile search.
RATE_GRID = np.linspace(0.05, 8.0, 160)
#: Cap on damped Gauss-Newton iterations in the final polish.
MAX_POLISH_STEPS = 300


def fit_power_law(radii, values) -> PowerLawFit:
    """Least-squares fit of ``limit + A * r^(-p)`` to scalar samples.

    The rate enters nonlinearly, so the fit scans :data:`RATE_GRID` for the
    least profiled residual (the linear parameters solved exactly at each
    trial rate), refines the rate by a golden-section search on the profiled
    residual, then polishes all three parameters with damped Gauss-Newton
    (Levenberg-Marquardt) steps.  Exact power-law data is recovered to machine
    precision.  Non-finite samples raise :class:`NonFiniteError`.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != v.shape or len(r) < 3:
        raise ValueError("fit_power_law needs matching 1-d arrays of at least 3 samples")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise NonFiniteError(
            f"fit_power_law needs finite samples, got radii {r.tolist()}, values {v.tolist()}"
        )
    scale = max(1.0, float(np.max(np.abs(v))))
    # spread at the quadrature-refinement noise floor: already converged
    if float(np.max(v) - np.min(v)) <= 1e-11 * scale:
        return PowerLawFit(limit=float(np.mean(v)), amplitude=0.0, rate=1.0, residual=0.0)

    p0 = float(RATE_GRID[np.argmin(_profile(r, v, RATE_GRID)[0])])
    p = _golden_minimum(lambda p: _profile(r, v, p)[0], max(0.01, p0 - 0.5), p0 + 0.5, xatol=1e-13)
    L, A = _profile(r, v, p)[1]
    (L, A, p), res = _polish(r, v, np.array([L, A, p]))
    return PowerLawFit(
        limit=float(L), amplitude=float(A), rate=float(p), residual=float(np.sqrt(np.mean(res**2)))
    )


def _profile(r: np.ndarray, v: np.ndarray, rates) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of ``v`` on the design ``[1, r^-p]`` at each of ``rates``.

    Returns the squared residuals (shape of ``rates``) and the coefficients
    ``(L, A)`` (that shape plus 2).  All designs are factored in one stacked
    SVD; singular values below ``np.linalg.lstsq``'s default cutoff (``eps``
    times the sample count times the largest) are dropped as ``lstsq`` drops
    them, which at large rates leaves a constant fit.
    """
    powers = r ** -np.asarray(rates, dtype=float)[..., None]
    design = np.stack([np.ones_like(powers), powers], axis=-1)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    kept = sv > np.finfo(float).eps * len(r) * sv[..., :1]
    scaled = np.where(kept, np.einsum("...ik,i->...k", u, v) / np.where(kept, sv, 1.0), 0.0)
    coef = np.einsum("...kj,...k->...j", vt, scaled)
    res = np.einsum("...ij,...j->...i", design, coef) - v
    return np.einsum("...i,...i->...", res, res), coef


def _golden_minimum(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> float:
    """Golden-section search for a minimum of ``f`` on ``[lo, hi]``.

    Stops once the bracket is within ``sqrt(eps) |x| + xatol / 3`` of its
    midpoint, the tolerance of Brent's bounded method, and returns the better
    of the two interior points.
    """
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while 0.5 * (b - a) > math.sqrt(np.finfo(float).eps) * abs(c) + xatol / 3.0:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def _polish(r: np.ndarray, v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt on ``L + A r^-p - v`` from ``x = (L, A, p)``.

    Each step solves the 3x3 damped normal equations in Jacobian-column-scaled
    variables; a step that does not lower the squared residual is retried with
    ten times the damping.  Stops once the scaled step is at most ``1e-15`` of
    the scaled parameters.  Returns the parameters and their residual vector.
    """
    log_r = np.log(r)

    def residual(params):
        rp = r ** -params[2]
        return params[0] + params[1] * rp - v, rp

    f, rp = residual(x)
    cost = float(f @ f)
    damping = 1e-3
    for _ in range(MAX_POLISH_STEPS):
        jac = np.column_stack([np.ones_like(r), rp, -x[1] * log_r * rp])
        d = np.linalg.norm(jac, axis=0)
        d[d == 0.0] = 1.0
        js = jac / d
        y = np.linalg.solve(js.T @ js + damping * np.eye(3), -(js.T @ f))
        trial = x + y / d
        f_trial, rp_trial = residual(trial)
        cost_trial = float(f_trial @ f_trial)
        if cost_trial < cost:
            x, f, rp, cost = trial, f_trial, rp_trial, cost_trial
            damping *= 0.1
        else:
            damping *= 10.0
        if np.linalg.norm(y) <= 1e-15 * np.linalg.norm(d * x):
            break
    return x, f


@dataclass(frozen=True)
class ConvergenceReport:
    """Functional samples over a schedule plus the fitted limit and rate.

    ``values`` has shape ``(len(radii),)`` for scalar functionals or
    ``(len(radii), dim)`` for vector ones, in which case ``fitted_limit`` is a
    vector and ``fitted_rate`` is taken from the component with the largest
    fitted amplitude (the component that actually carries the decay signal).
    """

    quantity: str
    radii: tuple[float, ...]
    values: np.ndarray
    fitted_limit: float | np.ndarray
    fitted_rate: float
    residual: float
    verdict: bool
    tolerance: float

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2


def _tail(length: int) -> int:
    return max(3, (length + 1) // 2)


def _fit_samples(radii: np.ndarray, values: np.ndarray) -> tuple:
    """Tail fit; returns (limit, rate, residual) with vector support."""
    tail = _tail(len(radii))
    r = radii[-tail:]
    if values.ndim == 1:
        fit = fit_power_law(r, values[-tail:])
        return fit.limit, fit.rate, fit.residual
    fits = [fit_power_law(r, values[-tail:, a]) for a in range(values.shape[1])]
    limits = np.array([f.limit for f in fits])
    lead = max(range(len(fits)), key=lambda a: abs(fits[a].amplitude))
    residual = max(f.residual for f in fits)
    return limits, fits[lead].rate, residual


def _verdict(values, limit, rate, tol) -> tuple[bool, float]:
    last = np.atleast_1d(values[-1]).astype(float)
    lim = np.atleast_1d(limit).astype(float)
    tol_eff = tol * (1.0 + float(np.max(np.abs(lim))))
    return bool(np.all(np.abs(last - lim) <= tol_eff) and rate > 0), tol_eff


def sphere_family(dim: int) -> Callable[[float, int], QuadSurface]:
    """Surface builder producing coordinate spheres."""
    return lambda r, order: sphere_quadrature(dim, r, order)


def ellipsoid_family(ratios: Sequence[float]) -> Callable[[float, int], QuadSurface]:
    """Surface builder producing ellipsoids with semi-axes ``ratios * r``."""
    ratios = tuple(float(t) for t in ratios)
    if min(ratios) <= 0:
        raise ValueError("ellipsoid axis ratios must be positive")

    def make(r: float, order: int) -> QuadSurface:
        return ellipsoid_quadrature([t * r for t in ratios], order)

    return make


@contextmanager
def _naming(where: str):
    """Name ``where`` a failure happened, keeping the failure's type.

    The package's own errors are raised again with ``where`` leading their
    message; any other exception passes through unchanged, with a note where
    Python supports notes (3.11 on).
    """
    try:
        yield
    except AdmfluxError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(f"while evaluating {where}")
        raise


def _converged(finer: np.ndarray, coarser: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(finer)))
    return float(np.max(np.abs(finer - coarser))) <= REFINEMENT_TOL * scale


def sweep(
    field: MetricField,
    functionals: Sequence[str],
    radii: Sequence[float],
    *,
    surface: Callable[[float, int], QuadSurface] | None = None,
    order: int = 24,
    mass: float | None = None,
    tol: float = DEFAULT_TOL,
) -> dict[str, ConvergenceReport]:
    """Evaluate named functionals over a growing surface schedule and fit their limits.

    ``radii`` is the increasing family parameter (sphere radius, or the scale
    fed to a custom ``surface`` builder).  Two passes run over the schedule: a
    mass pass over the mass functionals (with ``adm_mass`` added when a center
    needs the fitted mass), then a center pass over the center functionals,
    normalized by ``mass`` or, when it is None, by the fitted limit of
    ``adm_mass``.  Reports come in the order of :data:`FUNCTIONALS`.  Both
    passes read one table of totals per ``(radius, order)``: a surface is
    evaluated once for all functionals, and a mass total's evaluation also
    stores the total of the center on its route, which the center pass reuses.

    At each radius a pass starts at quadrature order ``order`` (2 to
    :data:`MAX_ORDER`) and doubles it until two consecutive orders agree to
    within :data:`REFINEMENT_TOL` of ``1 + |value|``; the doubling stops at
    :data:`MAX_ORDER`, whose value is taken as it is.  The fit uses the last
    half of the samples; the verdict is true when the final sample sits within
    ``tol * (1 + |limit|)`` of the fitted limit and the fitted rate is
    positive.  A failing evaluation names the functional and the radius; the
    package's own errors carry both in their message.
    """
    if isinstance(functionals, str):
        raise TypeError(f"sweep takes a list of functionals, got the string {functionals!r}")
    unknown = [f for f in functionals if f not in FUNCTIONALS]
    if unknown:
        raise ValueError(f"unknown functional {unknown[0]!r}; choose from {sorted(FUNCTIONALS)}")
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"start order must be between 2 and {MAX_ORDER}, got {order}")
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("sweep needs an increasing schedule of at least 4 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("schedule must be strictly increasing")
    centers = [f for f in FUNCTIONALS if f in functionals and FUNCTIONALS[f]["needs_mass"]]
    masses = [f for f in FUNCTIONALS if f in functionals and f not in centers]
    if centers and mass is None and "adm_mass" not in masses:
        masses.insert(0, "adm_mass")
    builder = surface if surface is not None else sphere_family(field.dim)
    totals: dict[tuple[float, int], dict] = {}

    def values_at(r: float, at: int, active: list[str], mass: float | None) -> dict:
        """Values of ``active`` on the ``(r, at)`` surface, read from ``totals``.

        Missing totals come from one :class:`SurfaceEval`, made when the first
        is missing, which then also stores the totals of the swept centers on
        the routes of ``active``.  A failure names the functional being formed.
        """
        got = totals.setdefault((r, at), {})
        evaluation = None
        values = {}
        for name in active:
            with _naming(f"{name} at schedule radius {r:g}"):
                if name not in got:
                    if evaluation is None:
                        evaluation = SurfaceEval(field, builder(r, at))
                    got[name] = evaluation.total(name)
                value = np.asarray(FUNCTIONALS[name]["fn"](got[name], field.dim, mass), dtype=float)
                if not np.all(np.isfinite(value)):
                    raise NonFiniteError(f"non-finite value {value.tolist()}")
                values[name] = value
        for name in [_CENTER_ON_ROUTE.get(f) for f in active]:
            if evaluation is not None and name in centers and name not in got:
                with _naming(f"{name} at schedule radius {r:g}"):
                    got[name] = evaluation.total(name)
        return values

    def swept(names: list[str], mass: float | None) -> dict[str, ConvergenceReport]:
        samples: dict[str, list] = {name: [] for name in names}
        for r in radii:
            active, previous, at = names, {}, order
            while active:
                values = values_at(r, at, active, mass)
                done = [
                    f for f in active
                    if at >= MAX_ORDER or (f in previous and _converged(values[f], previous[f]))
                ]
                for f in done:
                    samples[f].append(values[f])
                active = [f for f in active if f not in done]
                previous, at = values, min(2 * at, MAX_ORDER)
        reports = {}
        for name in names:
            values = np.stack(samples[name])
            limit, rate, residual = _fit_samples(np.asarray(radii), values)
            verdict, tol_eff = _verdict(values, limit, rate, tol)
            reports[name] = ConvergenceReport(
                quantity=name,
                radii=tuple(radii),
                values=values,
                fitted_limit=limit,
                fitted_rate=rate,
                residual=residual,
                verdict=verdict,
                tolerance=tol_eff,
            )
        return reports

    reports = swept(masses, None)
    if centers:
        if mass is None:
            mass = float(reports["adm_mass"].fitted_limit)
        reports.update(swept(centers, mass))
    return reports


def compare(a: ConvergenceReport, b: ConvergenceReport, tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Per-radius differences ``a - b`` with a fitted difference limit.

    The verdict is true when the fitted limit of the difference lies within
    ``tol`` of zero.  Schedules must match exactly.
    """
    if a.radii != b.radii:
        raise ValueError(f"schedule mismatch: {a.radii} vs {b.radii}")
    if a.values.shape != b.values.shape:
        raise ValueError("cannot compare scalar and vector reports")
    diff = a.values - b.values
    limit, rate, residual = _fit_samples(np.asarray(a.radii), diff)
    verdict = bool(np.max(np.abs(np.atleast_1d(limit))) <= tol)
    return ConvergenceReport(
        quantity=f"{a.quantity}-{b.quantity}",
        radii=a.radii,
        values=diff,
        fitted_limit=limit,
        fitted_rate=rate,
        residual=residual,
        verdict=verdict,
        tolerance=tol,
    )
