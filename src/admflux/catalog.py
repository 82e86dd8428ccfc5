"""Closed-form metric families with known invariants, used as ground truth.

All families are conformally flat, or a base metric plus a term in ``g_11``,
chosen so that every jet entry has a closed form.  The conformal factor is
restricted to finite sums ``u = 1 + sum_k a_k |x - c|^(-k)``, which keeps its
Laplacian analytic and the scalar-flatness oracle exact.  :func:`build` turns
a :class:`CatalogSpec` into a field and decides each kind in one branch;
``dataclasses.replace`` derives one spec from another.

The ``rt_violator`` kind is the negative control: the flat metric plus the odd
``g_11`` tail ``h_11 = amplitude * x^1 |x|^(-n/2 - 1)``.  The deviation decays
exactly like ``|x|^(-n/2)``, so its odd part fails the ``o(|x|^(-n/2))``
parity condition needed by the center-of-mass equivalence, while the plain
``o(|x|^(-(n-2)/2))`` hypothesis for the mass equivalence still holds.  Its
flux mass vanishes identically by parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metric_field import Array, MetricField, parity_parts
from .surfaces import unit_sphere_rule

KINDS = ("flat", "schwarzschild", "conformal", "perturbed", "rt_violator")
BUMP_PROFILES = ("gaussian", "rational")
BUMP_PARITIES = ("none", "even", "odd")


@dataclass(frozen=True)
class CatalogSpec:
    """Declarative description of a catalog metric.

    ``u_coeffs`` lists ``(power, coefficient)`` pairs of the conformal factor
    for the ``conformal`` kind; ``schwarzschild`` is the single-term special
    case ``u = 1 + mass / (2 |x - c|^(n-2))`` with metric ``u^(4/(n-2)) delta``.
    ``perturbed`` adds a parity-tagged bump to a base spec, and ``rt_violator``
    is flat plus an odd tail that decays exactly like ``|x|^(-n/2)``.
    """

    kind: str
    dim: int = 3
    mass: float = 1.0
    center: tuple[float, ...] = ()
    u_coeffs: tuple[tuple[int, float], ...] = ()
    base: "CatalogSpec | None" = None
    bump_amplitude: float = 0.05
    bump_width: float = 2.0
    bump_location: tuple[float, ...] = ()
    bump_parity: str = "none"
    bump_profile: str = "gaussian"
    bump_tail_power: int = 3
    amplitude: float = 0.5  # rt_violator only
    inner_radius: float | None = None
    label: str | None = None


def _padded(entries: tuple[float, ...], n: int) -> Array:
    """``entries`` as a point of R^n, its missing coordinates zero."""
    out = np.zeros(n)
    out[: len(entries)] = entries
    return out


def _validate(spec: CatalogSpec) -> None:
    if spec.kind not in KINDS:
        raise ConfigError(f"unknown catalog kind {spec.kind!r}; choose one of {KINDS}")
    if spec.dim < 3:
        raise ConfigError(f"catalog metrics need dimension >= 3, got {spec.dim}")
    for what, entries in (("center", spec.center), ("bump location", spec.bump_location)):
        if len(entries) > spec.dim:
            raise ConfigError(f"{what} has {len(entries)} entries, more than dim {spec.dim}")
    if spec.kind == "conformal":
        if not spec.u_coeffs:
            raise ConfigError("conformal metrics need at least one (power, coefficient) pair")
        if any(k < 1 for k, _ in spec.u_coeffs):
            raise ConfigError("conformal factor powers must be >= 1")
    if spec.kind == "perturbed":
        if spec.base is None:
            raise ConfigError("perturbed metrics need a base spec")
        if spec.base.dim != spec.dim:
            raise ConfigError(f"perturbed dim {spec.dim} differs from its base's {spec.base.dim}")
        if spec.bump_profile not in BUMP_PROFILES:
            raise ConfigError(f"bump profile must be one of {BUMP_PROFILES}")
        if spec.bump_parity not in BUMP_PARITIES:
            raise ConfigError(f"bump parity must be one of {BUMP_PARITIES}")
        if spec.bump_width <= 0:
            raise ConfigError("bump width must be positive")
        if abs(spec.bump_amplitude) >= 1.0:
            raise ConfigError("bump amplitude must stay below 1 to keep the metric positive")
    if spec.inner_radius is not None and spec.inner_radius < 0:
        raise ConfigError("inner_radius must be nonnegative")


# ---------------------------------------------------------------------------
# conformal factors u = 1 + sum a_k |x - c|^(-k)


def _powers_u(points: Array, coeffs, center: Array):
    y = points - center
    rho = np.linalg.norm(y, axis=1)
    eye = np.eye(points.shape[1])
    u = np.ones(len(points))
    du = np.zeros_like(points)
    ddu = np.zeros((len(points), points.shape[1], points.shape[1]))
    for k, a in coeffs:
        u += a * rho**(-k)
        du += -a * k * rho[:, None] ** (-k - 2) * y
        ddu += -a * k * (
            rho[:, None, None] ** (-k - 2) * eye
            - (k + 2) * rho[:, None, None] ** (-k - 4) * y[:, :, None] * y[:, None, :]
        )
    return u, du, ddu


def _conformal_jets(points: Array, coeffs, center: Array, n: int):
    u, du, ddu = _powers_u(points, coeffs, center)
    p = 4.0 / (n - 2)
    eye = np.eye(n)
    g = u[:, None, None] ** p * eye
    dg = p * u[:, None, None, None] ** (p - 1) * du[:, :, None, None] * eye
    dd = (
        p * (p - 1) * u[:, None, None] ** (p - 2) * du[:, :, None] * du[:, None, :]
        + p * u[:, None, None] ** (p - 1) * ddu
    )
    ddg = dd[:, :, :, None, None] * eye
    return g, dg, ddg


# ---------------------------------------------------------------------------
# bump profiles


def _bump_jets_raw(points: Array, spec: CatalogSpec):
    y = points - _padded(spec.bump_location, points.shape[1])
    # numpy and float arithmetic: powers out of range give non-finite jets, not errors
    sigma2 = np.float64(spec.bump_width) ** 2
    eye = np.eye(points.shape[1])
    if spec.bump_profile == "gaussian":
        v = spec.bump_amplitude * np.exp(-np.einsum("pi,pi->p", y, y) / (2 * sigma2))
        dv = -v[:, None] * y / sigma2
        ddv = v[:, None, None] * (y[:, :, None] * y[:, None, :] / sigma2**2 - eye / sigma2)
        return v, dv, ddv
    k = float(spec.bump_tail_power)
    q = 1.0 + np.einsum("pi,pi->p", y, y) / sigma2
    s = k / 2.0
    v = spec.bump_amplitude * q**(-s)
    dv = -spec.bump_amplitude * k / sigma2 * q[:, None] ** (-s - 1) * y
    ddv = spec.bump_amplitude * (
        k * (k + 2) / sigma2**2 * q[:, None, None] ** (-s - 2) * y[:, :, None] * y[:, None, :]
        - k / sigma2 * q[:, None, None] ** (-s - 1) * eye
    )
    return v, dv, ddv


def _bump_jets(points: Array, spec: CatalogSpec):
    jets = _bump_jets_raw(points, spec)
    if spec.bump_parity == "none":
        return jets
    even, odd = parity_parts(jets, _bump_jets_raw(-points, spec))
    return even if spec.bump_parity == "even" else odd


# ---------------------------------------------------------------------------
# g_11 terms


def _rt_tail_jets(points: Array, A: float):
    """Jets of the ``rt_violator`` tail ``A x^1 |x|^(-n/2 - 1)``."""
    n = points.shape[1]
    p = n / 2.0 + 1.0
    r = np.linalg.norm(points, axis=1)
    x1 = points[:, 0]
    eye = np.eye(n)
    f = A * x1 * r**(-p)
    e1 = eye[0]
    df = A * (
        e1[None, :] * r[:, None] ** (-p) - p * x1[:, None] * points * r[:, None] ** (-p - 2)
    )
    ddf = A * (
        -p * r[:, None, None] ** (-p - 2)
        * (
            e1[None, :, None] * points[:, None, :]
            + e1[None, None, :] * points[:, :, None]
            + x1[:, None, None] * eye
        )
        + p * (p + 2) * x1[:, None, None] * points[:, :, None] * points[:, None, :]
        * r[:, None, None] ** (-p - 4)
    )
    return f, df, ddf


def _plus_g11(base: MetricField, term, inner: float, metadata: dict) -> MetricField:
    """``base`` with the jets ``term(points) = (v, dv, ddv)`` added to its ``g_11``."""
    n = base.dim
    pattern = np.zeros((n, n))
    pattern[0, 0] = 1.0

    def batch(points: Array):
        g, dg, ddg = base.jet_batch(points)
        v, dv, ddv = term(points)
        g = g + v[:, None, None] * pattern
        dg = dg + dv[:, :, None, None] * pattern
        ddg = ddg + ddv[:, :, :, None, None] * pattern
        return g, dg, ddg

    return MetricField(n, batch, inner, metadata)


# ---------------------------------------------------------------------------
# builder


def build(spec: CatalogSpec) -> MetricField:
    """Construct the metric field described by ``spec``, with analytic jets.

    Each kind is decided in one branch, which sets the field's default inner
    radius and its metadata: ``expected_mass`` (None when the flux integral
    diverges), plus ``expected_center`` and ``scalar_flat`` where the kind
    knows them.  ``perturbed`` takes its default inner radius and expected
    mass from its base field; ``rt_violator`` is the flat field plus its
    ``g_11`` tail.  The coefficients of a power that ``u_coeffs`` repeats add.
    """
    _validate(spec)
    n = spec.dim
    inner = spec.inner_radius
    metadata = {"label": spec.label or spec.kind}

    if spec.kind == "flat":
        eye = np.eye(n)

        def batch(points: Array):
            N = len(points)
            return (
                np.broadcast_to(eye, (N, n, n)).copy(),
                np.zeros((N, n, n, n)),
                np.zeros((N, n, n, n, n)),
            )

        metadata["expected_mass"] = 0.0
        return MetricField(n, batch, 0.0 if inner is None else inner, metadata)

    if spec.kind == "perturbed":
        base = build(spec.base)
        metadata["expected_mass"] = base.metadata["expected_mass"]
        inner = base.inner_radius if inner is None else inner
        return _plus_g11(base, lambda x: _bump_jets(x, spec), inner, metadata)

    if spec.kind == "rt_violator":
        metadata["expected_mass"] = 0.0
        inner = max(1.0, (2.0 * abs(spec.amplitude)) ** (2.0 / n)) if inner is None else inner
        flat = build(CatalogSpec(kind="flat", dim=n))
        return _plus_g11(flat, lambda x: _rt_tail_jets(x, spec.amplitude), inner, metadata)

    # schwarzschild and conformal: u^(4/(n-2)) delta about ``center``
    center = _padded(spec.center, n)
    if spec.kind == "schwarzschild":
        coeffs = ((n - 2, spec.mass / 2.0),)
        metadata["expected_mass"] = spec.mass
        if spec.mass != 0.0:
            metadata["expected_center"] = center.copy()
    else:
        powers: dict[int, float] = {}
        for k, a in spec.u_coeffs:  # a repeated power adds its coefficients
            k, a = int(k), float(a)
            powers[k] = powers[k] + a if k in powers else a
        coeffs = tuple(powers.items())
        # a term of u slower than |x|^(2-n) makes the flux integral diverge
        slow = any(k < n - 2 for k in powers)
        metadata["expected_mass"] = None if slow else 2.0 * powers.get(n - 2, 0.0)
    metadata["scalar_flat"] = all(k == n - 2 for k, _ in coeffs)
    if inner is None:
        # u is singular at its center; stay clear of the radius where the
        # leading coefficient could drive u toward zero
        bound = max(abs(a) ** (1.0 / k) for k, a in coeffs)
        inner = float(np.linalg.norm(center)) + max(1.0, 1.5 * bound)
    # probe u alone, summed as _powers_u sums it, on the domain boundary
    # |x| = inner_radius, the worst case for u > 0
    dirs, _ = unit_sphere_rule(n, 8)
    rho = np.linalg.norm(max(inner, 1e-6) * dirs - center, axis=1)
    if np.any(sum((a * rho**(-k) for k, a in coeffs), np.ones(len(rho))) <= 1e-10):
        raise ConfigError(
            "conformal factor is not positive down to the inner radius; "
            "raise inner_radius or adjust coefficients"
        )
    return MetricField(n, lambda x: _conformal_jets(x, coeffs, center, n), inner, metadata)

