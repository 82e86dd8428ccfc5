"""Radius sweeps, power-law limit extrapolation, and convergence verdicts.

Sampled functional values over a growing schedule of surfaces are fitted on
the tail with the model ``value(r) = limit + A * r^(-p)``.  A fitted rate is
reported alongside the limit rather than assumed, since the decay hypotheses
only guarantee convergence without a rate.
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
    def samples(self) -> list[tuple[float, float | list[float]]]:
        out = []
        for a, r in enumerate(self.radii):
            v = self.values[a]
            out.append((r, float(v) if np.ndim(v) == 0 else [float(t) for t in v]))
        return out

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
def _naming(functional: str, r: float):
    """Name ``functional`` and radius ``r`` in a failure, keeping its type.

    The package's own errors are raised again with both in the message;
    any other exception passes through unchanged, with a note where
    Python supports notes (3.11 on).
    """
    try:
        yield
    except AdmfluxError as exc:
        raise type(exc)(f"{functional} at schedule radius {r:g}: {exc}") from exc
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(f"while evaluating {functional} at schedule radius {r:g}")
        raise


def _converged(finer: np.ndarray, coarser: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(finer)))
    return float(np.max(np.abs(finer - coarser))) <= REFINEMENT_TOL * scale


class SharedSurfaces:
    """Surface evaluations shared by the sweeps of one run.

    Built for a field, a surface family, a start order (2 to
    :data:`MAX_ORDER`) and the functionals the run sweeps.  It keeps only
    reduced totals per ``(radius, order)``.  The first sweep to ask for a
    radius refines its whole group there side by side (the run's mass
    functionals, or its center functionals for one mass), so each surface
    is evaluated once for all of them.  A mass
    functional's evaluation also yields the totals of the center functional
    on its route, from the same jets or curvature bundle.  The curvature
    kernel runs only for curvature functionals.
    """

    def __init__(
        self,
        field: MetricField,
        functionals: Sequence[str],
        *,
        surface: Callable[[float, int], QuadSurface] | None = None,
        order: int = 24,
    ):
        unknown = [f for f in functionals if f not in FUNCTIONALS]
        if unknown:
            raise ValueError(f"unknown functional {unknown[0]!r}; choose from {sorted(FUNCTIONALS)}")
        if not 2 <= order <= MAX_ORDER:
            raise ValueError(f"start order must be between 2 and {MAX_ORDER}, got {order}")
        self.field = field
        self.functionals = [f for f in FUNCTIONALS if f in functionals]
        self.builder = surface if surface is not None else sphere_family(field.dim)
        self.order = order
        self._totals: dict[tuple[float, int], dict] = {}
        self._refined: dict[tuple[str, float, float | None], np.ndarray] = {}

    def refined(self, functional: str, r: float, mass: float | None = None) -> np.ndarray:
        """The value of ``functional`` at radius ``r`` once its refinement stops."""
        needs_mass = FUNCTIONALS[functional]["needs_mass"]
        mass = mass if needs_mass else None
        if (functional, r, mass) not in self._refined:
            group = [f for f in self.functionals if FUNCTIONALS[f]["needs_mass"] == needs_mass]
            centers = [] if needs_mass else [f for f in self.functionals if f not in group]
            self._refine(group, centers, r, mass)
        return self._refined[functional, r, mass]

    def _refine(self, group: list[str], centers: list[str], r: float, mass: float | None) -> None:
        active, previous, order = list(group), {}, self.order
        while active:
            partners = [_CENTER_ON_ROUTE[f] for f in active if _CENTER_ON_ROUTE.get(f) in centers]
            values = self._values(r, order, active, partners, mass)
            for f in active:
                if order >= MAX_ORDER or (f in previous and _converged(values[f], previous[f])):
                    self._refined[f, r, mass] = values[f]
            active = [f for f in active if (f, r, mass) not in self._refined]
            previous, order = values, min(2 * order, MAX_ORDER)

    def _values(self, r, order, names, partners, mass) -> dict[str, np.ndarray]:
        """Values of ``names`` on the ``(r, order)`` surface, read from its totals.

        Missing totals come from one :class:`SurfaceEval`, made when the first
        is missing; when it was made, it fills the totals of ``partners`` too.
        A failure names the functional whose total or value was being formed.
        """
        totals = self._totals.setdefault((r, order), {})
        evaluation = None
        values = {}
        for name in names:
            with _naming(name, r):
                if name not in totals:
                    if evaluation is None:
                        evaluation = SurfaceEval(self.field, self.builder(r, order))
                    totals[name] = evaluation.total(name)
                value = np.asarray(FUNCTIONALS[name]["fn"](totals[name], self.field.dim, mass), dtype=float)
                if not np.all(np.isfinite(value)):
                    raise NonFiniteError(f"non-finite value {value.tolist()}")
                values[name] = value
        for name in partners:
            if evaluation is not None and name not in totals:
                with _naming(name, r):
                    totals[name] = evaluation.total(name)
        return values


def sweep(
    field: MetricField,
    functional: str,
    radii: Sequence[float],
    *,
    surface: Callable[[float, int], QuadSurface] | None = None,
    order: int = 24,
    mass: float | None = None,
    tol: float = DEFAULT_TOL,
    shared: SharedSurfaces | None = None,
) -> ConvergenceReport:
    """Evaluate a named functional over a growing surface schedule and fit its limit.

    ``radii`` is the increasing family parameter (sphere radius, or the scale
    fed to a custom ``surface`` builder).  Center functionals require
    ``mass``.  The fit uses the last half of the samples; the verdict is true
    when the final sample sits within ``tol * (1 + |limit|)`` of the fitted
    limit and the fitted rate is positive.  Each evaluation starts at
    quadrature order ``order`` and doubles it until two consecutive orders
    agree to within :data:`REFINEMENT_TOL` of ``1 + |value|``; the doubling
    stops at :data:`MAX_ORDER`, whose value is taken as it is.  A failing evaluation
    names the functional and the radius; the package's own errors carry both
    in their message.

    ``shared`` lets the sweeps of one run share their surface evaluations; the
    surface family and start order are then those it was built with.
    """
    if FUNCTIONALS.get(functional, {}).get("needs_mass") and mass is None:
        raise ValueError(f"functional {functional!r} needs the mass normalization")
    if shared is None:
        shared = SharedSurfaces(field, [functional], surface=surface, order=order)
    elif shared.field is not field or functional not in shared.functionals:
        raise ValueError(f"shared evaluations do not cover {functional!r} on this field")
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("sweep needs an increasing schedule of at least 4 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("schedule must be strictly increasing")
    values = np.stack([shared.refined(functional, r, mass) for r in radii])
    limit, rate, residual = _fit_samples(np.asarray(radii), values)
    verdict, tol_eff = _verdict(values, limit, rate, tol)
    return ConvergenceReport(
        quantity=functional,
        radii=tuple(radii),
        values=values,
        fitted_limit=limit,
        fitted_rate=rate,
        residual=residual,
        verdict=verdict,
        tolerance=tol_eff,
    )


def sweep_all(
    field: MetricField,
    functionals: Sequence[str],
    radii: Sequence[float],
    *,
    surface: Callable[[float, int], QuadSurface] | None = None,
    order: int = 24,
    mass: float | None = None,
    tol: float = DEFAULT_TOL,
) -> dict[str, ConvergenceReport]:
    """:func:`sweep` of several functionals over one schedule, sharing their surfaces.

    The mass functionals run first.  Center functionals are normalized by
    ``mass``, or, when it is None, by the fitted limit of ``adm_mass``, whose
    report is then part of the result.
    """
    names = list(functionals)
    if mass is None and "adm_mass" not in names and any(
        FUNCTIONALS.get(f, {}).get("needs_mass") for f in names
    ):
        names.append("adm_mass")
    shared = SharedSurfaces(field, names, surface=surface, order=order)
    reports = {}
    for name in shared.functionals:
        if FUNCTIONALS[name]["needs_mass"] and mass is None:
            mass = float(reports["adm_mass"].fitted_limit)
        reports[name] = sweep(field, name, radii, mass=mass, tol=tol, shared=shared)
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
